#include "accel/layer.hh"

#include <algorithm>

#include "common/logging.hh"
#include "minimkl/blas1.hh"
#include "minimkl/blas2.hh"
#include "minimkl/fft.hh"
#include "minimkl/resample.hh"
#include "minimkl/sparse.hh"
#include "minimkl/transpose.hh"

namespace mealib::accel {

namespace {

/** Output bytes of one iteration of @p c (for the chaining credit). */
double
outputBytes(const OpCall &c)
{
    const double es = static_cast<double>(c.elemBytes());
    switch (c.kind) {
      case AccelKind::AXPY:
        return static_cast<double>(c.n) * es;
      case AccelKind::DOT:
        return es;
      case AccelKind::GEMV:
        return static_cast<double>(c.m) * es;
      case AccelKind::SPMV:
        return static_cast<double>(c.m) * 4.0;
      case AccelKind::RESMP:
        return static_cast<double>(c.m) * es;
      case AccelKind::FFT:
        return static_cast<double>(c.n) *
               static_cast<double>(std::max<std::uint64_t>(c.k, 1)) * es *
               static_cast<double>(c.m);
      case AccelKind::RESHP:
        return static_cast<double>(c.m) * static_cast<double>(c.n) * es;
      default:
        panic("outputBytes: bad kind");
    }
}

} // namespace

AcceleratorLayer::AcceleratorLayer(const dram::DramParams &dram,
                                   const noc::MeshParams &mesh,
                                   bool functional)
    : dramParams_(dram), meshParams_(mesh), functional_(functional)
{
}

void
AcceleratorLayer::executeComp(
    const OpCall &c, const std::array<std::uint32_t, kMaxLoopDims> &idx,
    dram::PhysMem &mem) const
{
    using mkl::cfloat;
    const Addr a0 = c.in0.at(idx);
    const Addr a1 = c.in1.at(idx);
    const Addr a2 = c.in2.at(idx);
    const Addr a3 = c.in3.at(idx);
    const Addr ao = c.out.at(idx);
    const auto n = static_cast<std::int64_t>(c.n);
    const auto m = static_cast<std::int64_t>(c.m);

    switch (c.kind) {
      case AccelKind::AXPY:
        if (c.complexData) {
            // Complex scalar packed as (alpha, beta).
            mkl::caxpy(n, {c.alpha, c.beta},
                       mem.ptr<cfloat>(a0, spanElems(c.n, c.inc0)),
                       c.inc0,
                       mem.ptr<cfloat>(ao, spanElems(c.n, c.inc1)),
                       c.inc1);
        } else {
            // Real AXPY is the axpby superset: y := alpha*x + beta*y.
            // cblas_saxpy maps to beta = 1.
            mkl::saxpby(n, c.alpha,
                        mem.ptr<float>(a0, spanElems(c.n, c.inc0)),
                        c.inc0, c.beta,
                        mem.ptr<float>(ao, spanElems(c.n, c.inc1)),
                        c.inc1);
        }
        break;
      case AccelKind::DOT:
        if (c.complexData) {
            const cfloat *x =
                mem.ptr<cfloat>(a0, spanElems(c.n, c.inc0));
            const cfloat *y =
                mem.ptr<cfloat>(a1, spanElems(c.n, c.inc1));
            *mem.ptr<cfloat>(ao, 1) =
                c.conjugate ? mkl::cdotc(n, x, c.inc0, y, c.inc1)
                            : mkl::cdotu(n, x, c.inc0, y, c.inc1);
        } else {
            *mem.ptr<float>(ao, 1) = mkl::sdot(
                n, mem.ptr<float>(a0, spanElems(c.n, c.inc0)), c.inc0,
                mem.ptr<float>(a1, spanElems(c.n, c.inc1)), c.inc1);
        }
        break;
      case AccelKind::GEMV:
        fatalIf(c.complexData, "GEMV accelerator: complex unsupported");
        mkl::sgemv(mkl::Order::RowMajor, mkl::Transpose::NoTrans, m, n,
                   c.alpha, mem.ptr<float>(a0, c.m * c.n),
                   static_cast<std::int64_t>(c.n),
                   mem.ptr<float>(a1, spanElems(c.n, c.inc0)), c.inc0,
                   c.beta, mem.ptr<float>(ao, c.m), 1);
        break;
      case AccelKind::SPMV:
        mkl::scsrmvRaw(m, mem.ptr<std::int64_t>(a0, c.m + 1),
                       mem.ptr<std::int32_t>(a1, c.k),
                       mem.ptr<float>(a2, c.k), mem.ptr<float>(a3, c.n),
                       mem.ptr<float>(ao, c.m));
        break;
      case AccelKind::RESMP: {
        auto kind = static_cast<mkl::InterpKind>(c.resampleKind);
        if (c.complexData) {
            mkl::resample1dc(mem.ptr<cfloat>(a0, c.n), n,
                             mem.ptr<cfloat>(ao, c.m), m, kind);
        } else {
            mkl::resample1d(mem.ptr<float>(a0, c.n), n,
                            mem.ptr<float>(ao, c.m), m, kind);
        }
        break;
      }
      case AccelKind::FFT: {
        fatalIf(!c.complexData, "FFT accelerator: data must be complex");
        auto dir = c.fftDir == -1 ? mkl::FftDirection::Forward
                                  : mkl::FftDirection::Inverse;
        std::uint64_t pts = c.n * std::max<std::uint64_t>(c.k, 1);
        const cfloat *in = mem.ptr<cfloat>(a0, pts * c.m);
        cfloat *out = mem.ptr<cfloat>(ao, pts * c.m);
        if (c.k > 0) {
            auto plan = mkl::FftPlan::dft2d(
                static_cast<std::int64_t>(c.k), n, dir);
            for (std::uint64_t b = 0; b < c.m; ++b)
                plan.execute(in + b * pts, out + b * pts);
        } else {
            mkl::FftPlan::dft1dBatched(n, m, n, dir).execute(in, out);
        }
        break;
      }
      case AccelKind::RESHP:
        if (c.complexData) {
            if (a0 == ao) {
                mkl::cimatcopy(mkl::Order::RowMajor,
                               mkl::Transpose::Trans, m, n,
                               {c.alpha, 0.0f},
                               mem.ptr<cfloat>(ao, c.m * c.n),
                               static_cast<std::int64_t>(c.n),
                               static_cast<std::int64_t>(c.m));
            } else {
                mkl::comatcopy(mkl::Order::RowMajor,
                               mkl::Transpose::Trans, m, n,
                               {c.alpha, 0.0f},
                               mem.ptr<cfloat>(a0, c.m * c.n),
                               static_cast<std::int64_t>(c.n),
                               mem.ptr<cfloat>(ao, c.m * c.n),
                               static_cast<std::int64_t>(c.m));
            }
        } else {
            if (a0 == ao) {
                mkl::simatcopy(mkl::Order::RowMajor,
                               mkl::Transpose::Trans, m, n, c.alpha,
                               mem.ptr<float>(ao, c.m * c.n),
                               static_cast<std::int64_t>(c.n),
                               static_cast<std::int64_t>(c.m));
            } else {
                mkl::somatcopy(mkl::Order::RowMajor,
                               mkl::Transpose::Trans, m, n, c.alpha,
                               mem.ptr<float>(a0, c.m * c.n),
                               static_cast<std::int64_t>(c.n),
                               mem.ptr<float>(ao, c.m * c.n),
                               static_cast<std::int64_t>(c.m));
            }
        }
        break;
      default:
        panic("executeComp: bad kind");
    }
}

void
AcceleratorLayer::accountComp(const OpCall &call, const LoopSpec &loop,
                              ExecStats &stats) const
{
    AccelEstimate est = estimate(call, loop, dramParams_, meshParams_);
    const char *key = name(call.kind);
    stats.timeByAccel.add(key, est.total.seconds);
    stats.energyByAccel.add(key, est.total.joules);
    stats.energyByComponent.add("dram", est.dramEnergyJ);
    stats.energyByComponent.add("logic", est.logicEnergyJ);
    stats.energyByComponent.add("noc", est.nocEnergyJ);
    stats.total += est.total;
    stats.bytesMoved += est.bytes;
    stats.flops += est.flops;
}

void
AcceleratorLayer::creditChaining(const OpCall &producer,
                                 const OpCall &consumer,
                                 const LoopSpec &loop,
                                 ExecStats &stats) const
{
    // The intermediate buffer never round-trips through DRAM: the
    // producer's output streams across the mesh into the consumer's
    // tile. Credit one store plus one load of the intermediate.
    double iters = static_cast<double>(loop.iterations());
    double saved = 2.0 * outputBytes(producer) * iters;

    double bw = dramParams_.peakInternalBandwidth() * 0.8;
    double dt = saved / bw;
    const dram::EnergyParams &e = dramParams_.energy;
    double de = saved * 0.5 * (e.readJPerByte + e.writeJPerByte) +
                saved * e.tsvJPerByte +
                saved / static_cast<double>(dramParams_.org.rowBytes) *
                    e.activateJ;

    // Never credit more than half of what the pair actually spent.
    const char *pk = name(producer.kind);
    const char *ck = name(consumer.kind);
    double pair_t =
        stats.timeByAccel.get(pk) + stats.timeByAccel.get(ck);
    double pair_e =
        stats.energyByAccel.get(pk) + stats.energyByAccel.get(ck);
    dt = std::min(dt, 0.5 * pair_t);
    de = std::min(de, 0.5 * pair_e);

    stats.timeByAccel.add(pk, -dt / 2.0);
    stats.timeByAccel.add(ck, -dt / 2.0);
    stats.energyByAccel.add(pk, -de / 2.0);
    stats.energyByAccel.add(ck, -de / 2.0);
    stats.energyByComponent.add("dram", -de); // the credit is DRAM traffic
    stats.total.seconds -= dt;
    stats.total.joules -= de;
    stats.bytesMoved -= saved;
}

ExecStats
AcceleratorLayer::execute(const DescriptorProgram &prog,
                          dram::PhysMem &mem)
{
    prog.validate();
    ExecStats stats;

    // FetchUnit: pull the descriptor into IMEM and decode it.
    stats.invocation.seconds +=
        costs_.fetchPerInstrS * static_cast<double>(prog.instrs.size());

    forEachPass(prog, [&](std::span<const Instr> pass,
                          const LoopSpec &loop) {
        stats.passes++;
        // DU: configure every accelerator in the pass, then kick off.
        stats.invocation.seconds +=
            costs_.passStartS +
            costs_.accelInitS * static_cast<double>(pass.size());

        for (const Instr &c : pass)
            accountComp(c.call, loop, stats);
        for (std::size_t i = 0; i + 1 < pass.size(); ++i) {
            if (pass[i + 1].call.in0.base == pass[i].call.out.base)
                creditChaining(pass[i].call, pass[i + 1].call, loop,
                               stats);
        }

        if (functional_) {
            std::array<std::uint32_t, kMaxLoopDims> idx{0, 0, 0, 0};
            std::uint64_t iters = loop.iterations();
            for (std::uint64_t it = 0; it < iters; ++it) {
                for (const Instr &c : pass)
                    executeComp(c.call, idx, mem);
                for (unsigned d = kMaxLoopDims; d-- > 0;) {
                    if (++idx[d] < loop.dims[d])
                        break;
                    idx[d] = 0;
                }
            }
        }
        stats.compsExecuted += pass.size() * loop.iterations();
    });

    stats.invocation.joules =
        costs_.configUnitPowerW * stats.invocation.seconds;
    stats.total += stats.invocation;
    return stats;
}

} // namespace mealib::accel
