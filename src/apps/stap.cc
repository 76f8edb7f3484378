#include "apps/stap.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "dispatch/models.hh"
#include "hwmodel/profile.hh"
#include "minimkl/compat.hh"

namespace mealib::apps {

using accel::AccelKind;
using accel::DescriptorProgram;
using accel::LoopSpec;
using accel::OpCall;
using mkl::cfloat;

StapParams
StapParams::smallSet()
{
    StapParams p;
    p.nChan = 12; // smaller array -> smaller space-time vectors
    p.nDop = 64;
    p.nBlocks = 4;
    p.nSteering = 16;
    p.tbs = 16;
    return p; // 64K inner products
}

StapParams
StapParams::mediumSet()
{
    StapParams p;
    p.nChan = 14;
    p.nDop = 128;
    p.nBlocks = 8;
    p.nSteering = 32;
    p.tbs = 32;
    return p; // 1M inner products
}

StapParams
StapParams::largeSet()
{
    StapParams p;
    p.nDop = 256;
    p.nBlocks = 16;
    p.nSteering = 64;
    p.tbs = 64;
    return p; // 16.7M inner products, the paper's scale
}

namespace {

/** Synthetic datacube [chan][pulse][range] with a few injected tones. */
std::vector<cfloat>
generateCube(const StapParams &p)
{
    Rng rng(p.seed);
    std::vector<cfloat> cube(static_cast<std::size_t>(p.nChan) * p.nDop *
                             p.nRange());
    for (auto &v : cube)
        v = {rng.uniform(-0.1f, 0.1f), rng.uniform(-0.1f, 0.1f)};
    // Inject a moving target per channel so the doppler spectrum has
    // structure (keeps covariances well-conditioned too).
    for (unsigned ch = 0; ch < p.nChan; ++ch) {
        for (unsigned pu = 0; pu < p.nDop; ++pu) {
            for (unsigned r = 0; r < p.nRange(); r += 7) {
                double ph = 2.0 * M_PI *
                            (0.1 * pu + 0.01 * r + 0.2 * ch);
                std::size_t i =
                    (static_cast<std::size_t>(ch) * p.nDop + pu) *
                        p.nRange() +
                    r;
                cube[i] += cfloat(0.5f * std::cos(ph),
                                  0.5f * std::sin(ph));
            }
        }
    }
    return cube;
}

/** Unblocked complex Cholesky (lower) of a row-major n x n matrix. */
void
cpotrfLower(std::int64_t n, cfloat *a, std::int64_t lda)
{
    for (std::int64_t j = 0; j < n; ++j) {
        double diag = a[j * lda + j].real();
        for (std::int64_t k = 0; k < j; ++k)
            diag -= std::norm(a[j * lda + k]);
        fatalIf(diag <= 0.0, "cpotrf: matrix not positive definite");
        float d = static_cast<float>(std::sqrt(diag));
        a[j * lda + j] = {d, 0.0f};
        for (std::int64_t i = j + 1; i < n; ++i) {
            cfloat s = a[i * lda + j];
            for (std::int64_t k = 0; k < j; ++k)
                s -= a[i * lda + k] * std::conj(a[j * lda + k]);
            a[i * lda + j] = s / d;
        }
        // zero the strict upper triangle so trsm sees clean data
        for (std::int64_t k = j + 1; k < n; ++k)
            a[j * lda + k] = {};
    }
}

/** Steering matrix V: dofLen x nSteering, column sv per direction. */
std::vector<cfloat>
steeringMatrix(const StapParams &p)
{
    const unsigned l = p.dofLen();
    std::vector<cfloat> v(static_cast<std::size_t>(l) * p.nSteering);
    for (unsigned d = 0; d < l; ++d) {
        for (unsigned s = 0; s < p.nSteering; ++s) {
            double ph = 2.0 * M_PI * static_cast<double>(d * (s + 1)) /
                        static_cast<double>(l * p.nSteering);
            v[static_cast<std::size_t>(d) * p.nSteering + s] = {
                static_cast<float>(std::cos(ph)),
                static_cast<float>(std::sin(ph))};
        }
    }
    return v;
}

/**
 * Marshal space-time snapshots from doppler-space data. doppler layout:
 * [chan][range][dop]; snapshot layout: [dop][block][cell][dof] with
 * dof = t * nChan + chan and the t-th temporal tap reading doppler bin
 * (dop + t) mod nDop.
 */
void
buildSnapshots(const StapParams &p, const cfloat *doppler, cfloat *snap)
{
    const unsigned l = p.dofLen();
    for (unsigned dop = 0; dop < p.nDop; ++dop) {
        for (unsigned b = 0; b < p.nBlocks; ++b) {
            for (unsigned c = 0; c < p.tbs; ++c) {
                unsigned range = b * p.tbs + c;
                cfloat *out =
                    snap +
                    ((static_cast<std::size_t>(dop) * p.nBlocks + b) *
                         p.tbs +
                     c) *
                        l;
                for (unsigned t = 0; t < p.tdof; ++t) {
                    unsigned bin = (dop + t) % p.nDop;
                    for (unsigned ch = 0; ch < p.nChan; ++ch) {
                        out[t * p.nChan + ch] =
                            doppler[(static_cast<std::size_t>(ch) *
                                         p.nRange() +
                                     range) *
                                        p.nDop +
                                    bin];
                    }
                }
            }
        }
    }
}

/**
 * Covariance + Cholesky + two triangular solves per (dop, block).
 * Weights come out as [dop][block][sv][dof] (Listing 1's layout).
 * @return the number of library calls issued (cherk + 2 ctrsm each).
 */
std::uint64_t
computeWeights(const StapParams &p, const cfloat *snap, cfloat *weights)
{
    const unsigned l = p.dofLen();
    const std::vector<cfloat> v = steeringMatrix(p);
    std::vector<cfloat> r(static_cast<std::size_t>(l) * l);
    std::vector<cfloat> y(static_cast<std::size_t>(l) * p.nSteering);
    const cfloat one{1.0f, 0.0f};
    std::uint64_t calls = 0;

    for (unsigned dop = 0; dop < p.nDop; ++dop) {
        for (unsigned b = 0; b < p.nBlocks; ++b) {
            const cfloat *a =
                snap +
                ((static_cast<std::size_t>(dop) * p.nBlocks + b) *
                 p.tbs) *
                    l;
            // R = A^H A over the training block (A is tbs x l).
            std::fill(r.begin(), r.end(), cfloat{});
            cblas_cherk(CblasRowMajor, CblasLower, CblasConjTrans, l,
                        p.tbs, 1.0f, a, l, 0.0f, r.data(), l);
            calls++;
            // Diagonal loading keeps the factorization well posed.
            for (unsigned d = 0; d < l; ++d)
                r[static_cast<std::size_t>(d) * l + d] +=
                    cfloat{0.1f * static_cast<float>(p.tbs), 0.0f};
            cpotrfLower(l, r.data(), l);

            // Solve R w = v via L y = v, then L^H w = y.
            std::copy(v.begin(), v.end(), y.begin());
            cblas_ctrsm(CblasRowMajor, CblasLeft, CblasLower,
                        CblasNoTrans, CblasNonUnit, l, p.nSteering, &one,
                        r.data(), l, y.data(), p.nSteering);
            cblas_ctrsm(CblasRowMajor, CblasLeft, CblasLower,
                        CblasConjTrans, CblasNonUnit, l, p.nSteering, &one,
                        r.data(), l, y.data(), p.nSteering);
            calls += 2;

            // Repack column sv of y into the [sv][dof] weight layout.
            cfloat *w =
                weights +
                (static_cast<std::size_t>(dop) * p.nBlocks + b) *
                    p.nSteering * l;
            for (unsigned s = 0; s < p.nSteering; ++s)
                for (unsigned d = 0; d < l; ++d)
                    w[static_cast<std::size_t>(s) * l + d] =
                        y[static_cast<std::size_t>(d) * p.nSteering + s];
        }
    }
    return calls;
}

/** Host cost of the compute-bounded stages (cherk/ctrsm/Cholesky). */
host::KernelProfile
weightStageProfile(const StapParams &p)
{
    const double l = p.dofLen();
    const double count = static_cast<double>(p.nDop) * p.nBlocks;
    host::KernelProfile prof;
    prof.name = "cherk+ctrsm";
    // cherk: 4*l*(l+1)*k real flops; two trsm: 4*l^2*nSteering each;
    // Cholesky: (4/3)*l^3.
    prof.flops = count * (4.0 * l * (l + 1.0) * p.tbs +
                          8.0 * l * l * p.nSteering +
                          4.0 / 3.0 * l * l * l);
    prof.bytesRead = count * (p.tbs * l * 8.0 + l * l * 8.0);
    prof.bytesWritten = count * (l * p.nSteering * 8.0);
    // Small matrices (l = 12) leave vector lanes idle.
    prof.simdEff = 0.30;
    prof.memEff = 0.7;
    prof.parallelFraction = 0.95;
    return prof;
}

/** Host cost of snapshot marshalling + weight repacking (streaming). */
host::KernelProfile
marshalProfile(const StapParams &p)
{
    const double snap_bytes = static_cast<double>(p.dotCalls() /
                                                  p.nSteering) *
                              p.dofLen() * 8.0;
    const double w_bytes = static_cast<double>(p.nDop) * p.nBlocks *
                           p.nSteering * p.dofLen() * 8.0;
    host::KernelProfile prof;
    prof.name = "marshal";
    prof.bytesRead = snap_bytes + w_bytes;
    prof.bytesWritten = snap_bytes + w_bytes;
    prof.memEff = 0.4; // gather-style addressing
    prof.simdEff = 0.5;
    prof.flops = 1.0;
    return prof;
}

/** OpCall templates shared by the host and MEALib runs. */
struct StapCalls
{
    OpCall reshape; //!< per-channel corner turn     (RESHP, LOOP nChan)
    LoopSpec reshapeLoop;
    OpCall fft;     //!< per-channel doppler FFT     (FFT, chained)
    OpCall dot;     //!< the 4-deep inner-product nest (DOT, LOOP 4D)
    LoopSpec dotLoop;
    OpCall axpy;    //!< final scaling                (AXPY)
};

StapCalls
buildCalls(const StapParams &p, Addr cube, Addr mid, Addr doppler,
           Addr weights, Addr snap, Addr prods, Addr out)
{
    const unsigned l = p.dofLen();
    const std::int64_t chan_bytes =
        static_cast<std::int64_t>(p.nDop) * p.nRange() * 8;
    StapCalls c;

    // Corner turn: per channel, transpose [pulse][range] ->
    // [range][pulse] (the fftwf rank-0 guru copy of Listing 1).
    c.reshape.kind = AccelKind::RESHP;
    c.reshape.m = p.nDop;
    c.reshape.n = p.nRange();
    c.reshape.complexData = true;
    c.reshape.in0 = {cube, {chan_bytes, 0, 0, 0}};
    c.reshape.out = {mid, {chan_bytes, 0, 0, 0}};
    c.reshapeLoop.dims = {p.nChan, 1, 1, 1};

    // Doppler FFT: nRange transforms of length nDop per channel,
    // chained onto the corner turn's output.
    c.fft.kind = AccelKind::FFT;
    c.fft.n = p.nDop;
    c.fft.m = p.nRange();
    c.fft.complexData = true;
    c.fft.fftDir = -1;
    c.fft.in0 = {mid, {chan_bytes, 0, 0, 0}};
    c.fft.out = {doppler, {chan_bytes, 0, 0, 0}};

    // Inner products: loop dims (dop, block, sv, cell).
    const std::int64_t lb = static_cast<std::int64_t>(l) * 8;
    const std::int64_t w_sv = lb;
    const std::int64_t w_block =
        static_cast<std::int64_t>(p.nSteering) * w_sv;
    const std::int64_t w_dop =
        static_cast<std::int64_t>(p.nBlocks) * w_block;
    const std::int64_t s_cell = lb;
    const std::int64_t s_block =
        static_cast<std::int64_t>(p.tbs) * s_cell;
    const std::int64_t s_dop =
        static_cast<std::int64_t>(p.nBlocks) * s_block;
    const std::int64_t o_cell = 8;
    const std::int64_t o_sv = static_cast<std::int64_t>(p.tbs) * o_cell;
    const std::int64_t o_block =
        static_cast<std::int64_t>(p.nSteering) * o_sv;
    const std::int64_t o_dop =
        static_cast<std::int64_t>(p.nBlocks) * o_block;

    c.dot.kind = AccelKind::DOT;
    c.dot.n = l;
    c.dot.complexData = true;
    c.dot.conjugate = true;
    c.dot.in0 = {weights, {w_dop, w_block, w_sv, 0}};
    c.dot.in1 = {snap, {s_dop, s_block, 0, s_cell}};
    c.dot.out = {prods, {o_dop, o_block, o_sv, o_cell}};
    c.dotLoop.dims = {p.nDop, p.nBlocks, p.nSteering, p.tbs};

    // Output scaling: out += alpha * prods over the flattened cube.
    c.axpy.kind = AccelKind::AXPY;
    c.axpy.n = p.dotCalls();
    c.axpy.complexData = true;
    c.axpy.alpha = 1.0f / static_cast<float>(p.tbs);
    c.axpy.beta = 0.0f;
    c.axpy.in0 = {prods, {0, 0, 0, 0}};
    c.axpy.out = {out, {0, 0, 0, 0}};

    return c;
}

} // namespace

StapResult
runStapHost(const StapParams &p)
{
    StapResult res;
    const hwmodel::MachineProfile &machine = hwmodel::activeProfile();
    host::CpuModel cpu(machine.cpu);
    const unsigned l = p.dofLen();

    // --- functional pipeline through the MKL-signature shims (the
    // legacy code path) ---
    std::vector<cfloat> cube = generateCube(p);
    std::vector<cfloat> mid(cube.size());
    std::vector<cfloat> doppler(cube.size());
    const std::size_t chan_elems =
        static_cast<std::size_t>(p.nDop) * p.nRange();
    for (unsigned ch = 0; ch < p.nChan; ++ch) {
        mkl_comatcopy(
            'R', 'T', p.nDop, p.nRange(), {1.0f, 0.0f},
            reinterpret_cast<const MKL_Complex8 *>(cube.data() +
                                                   ch * chan_elems),
            p.nRange(),
            reinterpret_cast<MKL_Complex8 *>(mid.data() + ch * chan_elems),
            p.nDop);
    }
    // Listing 1's doppler FFT: nDop-point transforms over every
    // (channel, range) row of the pulse-major cube.
    const int nDop = static_cast<int>(p.nDop);
    const fftwf_iodim dft{nDop, 1, 1};
    const fftwf_iodim rows{static_cast<int>(p.nChan * p.nRange()), nDop,
                           nDop};
    fftwf_plan fft = fftwf_plan_guru_dft(
        1, &dft, 1, &rows, reinterpret_cast<fftwf_complex *>(mid.data()),
        reinterpret_cast<fftwf_complex *>(doppler.data()), FFTW_FORWARD,
        FFTW_ESTIMATE);
    fftwf_execute(fft);
    fftwf_destroy_plan(fft);

    std::vector<cfloat> snap(p.dotCalls() / p.nSteering * l);
    buildSnapshots(p, doppler.data(), snap.data());
    std::vector<cfloat> weights(static_cast<std::size_t>(p.nDop) *
                                p.nBlocks * p.nSteering * l);
    std::uint64_t blas3_calls =
        computeWeights(p, snap.data(), weights.data());

    std::vector<cfloat> prods(p.dotCalls());
    for (unsigned dop = 0; dop < p.nDop; ++dop)
        for (unsigned b = 0; b < p.nBlocks; ++b)
            for (unsigned s = 0; s < p.nSteering; ++s)
                for (unsigned c = 0; c < p.tbs; ++c) {
                    const cfloat *w =
                        weights.data() +
                        ((static_cast<std::size_t>(dop) * p.nBlocks +
                          b) *
                             p.nSteering +
                         s) *
                            l;
                    const cfloat *x =
                        snap.data() +
                        ((static_cast<std::size_t>(dop) * p.nBlocks +
                          b) *
                             p.tbs +
                         c) *
                            l;
                    cblas_cdotc_sub(
                        l, w, 1, x, 1,
                        &prods[((static_cast<std::size_t>(dop) *
                                     p.nBlocks +
                                 b) *
                                    p.nSteering +
                                s) *
                                   p.tbs +
                               c]);
                }

    res.prods.assign(prods.size(), cfloat{});
    const cfloat scale{1.0f / static_cast<float>(p.tbs), 0.0f};
    cblas_caxpy(static_cast<int>(prods.size()), &scale, prods.data(), 1,
                res.prods.data(), 1);

    // --- cost model: every stage runs on the host --------------------
    StapCalls calls = buildCalls(p, 0, 0, 0, 0, 0, 0, 0);

    auto charge = [&](const host::KernelProfile &prof,
                      const char *label) {
        Cost c = cpu.run(prof);
        res.host += c;
        res.ledger.post("host", c, label);
        res.ledger.attribute("host", c.joules);
        res.ledger.addFlops(prof.flops);
    };
    auto host_stage = [&](const OpCall &call, const LoopSpec &loop,
                          double per_call_overhead, const char *label) {
        // Priced against the active machine profile; identical to the
        // pre-registry eval::hostProfile(HaswellMkl) on the default.
        host::KernelProfile prof =
            dispatch::hostKernelProfile(machine, call, loop);
        prof.callOverheads +=
            per_call_overhead * static_cast<double>(loop.iterations());
        charge(prof, label);
    };
    host_stage(calls.reshape, calls.reshapeLoop, 0.0, "reshape");
    host_stage(calls.fft, calls.reshapeLoop, 0.0, "fft"); // one per chan
    // 16M separate cdotc_sub library calls each pay dispatch cost.
    host_stage(calls.dot, calls.dotLoop, 40e-9, "dot");
    host_stage(calls.axpy, {}, 0.0, "axpy");
    charge(weightStageProfile(p), "cherk+ctrsm");
    charge(marshalProfile(p), "marshal");

    res.libraryCalls = 2 + 2 + blas3_calls + p.dotCalls() + 1;
    res.descriptors = 0;
    return res;
}

StapResult
runStapMealib(const StapParams &p, runtime::MealibRuntime &rt,
              bool exclusive)
{
    StapResult res;
    const unsigned l = p.dofLen();
    const std::size_t cube_elems =
        static_cast<std::size_t>(p.nChan) * p.nDop * p.nRange();

    if (exclusive)
        rt.resetAccounting();

    // Data allocation through the memory-management runtime (the s2s
    // compiler rewrote malloc into mealib_mem_alloc).
    auto *cube = static_cast<cfloat *>(rt.memAlloc(cube_elems * 8));
    auto *mid = static_cast<cfloat *>(rt.memAlloc(cube_elems * 8));
    auto *doppler = static_cast<cfloat *>(rt.memAlloc(cube_elems * 8));
    auto *snap = static_cast<cfloat *>(
        rt.memAlloc(p.dotCalls() / p.nSteering * l * 8));
    auto *weights = static_cast<cfloat *>(
        rt.memAlloc(static_cast<std::size_t>(p.nDop) * p.nBlocks *
                    p.nSteering * l * 8));
    auto *prods = static_cast<cfloat *>(rt.memAlloc(p.dotCalls() * 8));
    auto *out = static_cast<cfloat *>(rt.memAlloc(p.dotCalls() * 8));

    std::vector<cfloat> cube_data = generateCube(p);
    std::copy(cube_data.begin(), cube_data.end(), cube);
    std::fill(out, out + p.dotCalls(), cfloat{});
    rt.noteHostWrite(cube, cube_elems * 8);
    rt.noteHostWrite(out, p.dotCalls() * 8);

    StapCalls calls = buildCalls(
        p, rt.physOf(cube), rt.physOf(mid), rt.physOf(doppler),
        rt.physOf(weights), rt.physOf(snap), rt.physOf(prods),
        rt.physOf(out));

    // Descriptor 1: per-channel corner turn chained into the doppler
    // FFT (the two fftwf_plan_guru_dft pairs of Listing 1).
    DescriptorProgram d1;
    d1.addLoop(calls.reshapeLoop, 3);
    d1.addComp(calls.reshape);
    OpCall fft = calls.fft;
    d1.addComp(fft);
    d1.addPassEnd();
    auto h1 = rt.accPlan(d1);
    rt.accExecute(h1);
    rt.accDestroy(h1);

    // Host stages: snapshots, covariance, solves, weight repacking.
    buildSnapshots(p, doppler, snap);
    std::uint64_t blas3_calls = computeWeights(p, snap, weights);
    rt.noteHostWrite(snap, p.dotCalls() / p.nSteering * l * 8);
    rt.noteHostWrite(weights, static_cast<std::size_t>(p.nDop) *
                                  p.nBlocks * p.nSteering * l * 8);
    rt.runOnHost(weightStageProfile(p));
    rt.runOnHost(marshalProfile(p));

    // Descriptor 2: the 16M cdotc_sub calls as ONE 4-D LOOP descriptor.
    DescriptorProgram d2;
    d2.addLoop(calls.dotLoop, 2);
    d2.addComp(calls.dot);
    d2.addPassEnd();
    auto h2 = rt.accPlan(d2);
    rt.accExecute(h2);
    rt.accDestroy(h2);

    // Descriptor 3: the output-scaling saxpy.
    DescriptorProgram d3;
    d3.addComp(calls.axpy);
    d3.addPassEnd();
    auto h3 = rt.accPlan(d3);
    rt.accExecute(h3);
    rt.accDestroy(h3);

    res.prods.assign(out, out + p.dotCalls());

    if (exclusive) {
        const runtime::RuntimeAccounting &acct = rt.accounting();
        res.host = acct.host;
        res.accel = acct.accel;
        res.invocation = acct.invocation;
        res.timeByAccel = acct.timeByAccel;
        res.energyByAccel = acct.energyByAccel;
        // The host idles (but still burns package power) while the
        // accelerators own the DRAM; the runtime's own host prices it.
        Cost idle = rt.hostModel().idleCost(res.accel.seconds +
                                            res.invocation.seconds);
        res.host.joules += idle.joules;
        res.criticalPathSeconds = acct.makespanSeconds;
        // The accounting above is a view of the runtime's ledger; add
        // the package-idle charge so ledger.total() == total() stays
        // exact.
        res.ledger = rt.ledger();
        res.ledger.post("host", {0.0, idle.joules}, "package_idle");
        res.ledger.attribute("host", idle.joules);
    }

    res.libraryCalls = 2 + 2 + blas3_calls + p.dotCalls() + 1;
    res.descriptors = 3;

    for (void *ptr : {static_cast<void *>(cube), static_cast<void *>(mid),
                      static_cast<void *>(doppler),
                      static_cast<void *>(snap),
                      static_cast<void *>(weights),
                      static_cast<void *>(prods),
                      static_cast<void *>(out)})
        rt.memFree(ptr);
    return res;
}

} // namespace mealib::apps
