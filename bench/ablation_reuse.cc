/**
 * @file
 * Ablation: cross-command operand residency and descriptor-program
 * fusion (docs/RUNTIME.md "Residency", docs/DISPATCH.md "Fusion").
 *
 * Sweeps chain length x fusion window x residency on/off over two
 * chained workloads and reports what the reuse layers elide:
 *
 *  1. a SAR-style runtime chain (RESMP -> FFT repeated over the same
 *     operands): with residency on, every warm iteration's pre-submit
 *     flush collapses because the read set is still clean-on-stack;
 *  2. a STAP-style dispatcher chain (repeated AXPY passes through the
 *     op-IR dispatcher): the fusion window coalesces adjacent calls
 *     into one multi-COMP program, eliding the intermediate START
 *     handshakes, and residency elides the warm flushes on top.
 *
 * Functional output is bit-for-bit identical in every cell — the FNV
 * digest over all output bytes must agree across the whole sweep; only
 * the modeled invocation cost moves. Each record carries its reduction
 * against the baseline twin cell (residency off, window 1, same chain
 * length and seed).
 *
 * Usage: ablation_reuse [--quick] [--seed=S] [--json=PATH] [--check]
 *
 * --check exits non-zero when a digest diverges, when any cell reuses
 * no memoized descriptor image, when a residency-on cell elides zero
 * flush bytes, or when the fully-enabled cell of any chain length fails
 * the >= 20% invocation-reduction bar on either workload (the
 * acceptance gate CI runs).
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/rng.hh"
#include "dispatch/backend.hh"
#include "dispatch/dispatcher.hh"
#include "dispatch/models.hh"
#include "dispatch/opdesc.hh"
#include "dispatch/policy.hh"
#include "minimkl/blas1.hh"
#include "runtime/runtime.hh"

using namespace mealib;
using accel::AccelKind;
using accel::DescriptorProgram;
using accel::LoopSpec;
using accel::OpCall;
using mkl::cfloat;

namespace {

using bench::digestBytes;
using bench::hex64;

struct Sample
{
    std::uint64_t seed;
    unsigned chain;
    unsigned window;
    bool residency;
    double sarInvocationS;
    double stapInvocationS;
    double totalS;
    double totalJ;
    std::uint64_t flushBytesElided;
    std::uint64_t verifyBytesElided;
    std::uint64_t handshakesElided;
    std::uint64_t fusedPrograms;
    std::uint64_t planImageReuses;
    std::uint64_t digest;
    double sarReductionPct = 0.0;  //!< vs the (off, window 1) twin
    double stapReductionPct = 0.0; //!< vs the (off, window 1) twin
    double invocationReductionPct = 0.0; //!< combined, vs the twin
};

/**
 * SAR-style chain: `chain` repetitions of the unfused RESMP -> FFT
 * pair over the same buffers. The input is host-written once; every
 * later repetition's read set is accelerator-resident.
 */
std::uint64_t
runSarChain(runtime::MealibRuntime &rt, unsigned chain,
            std::uint64_t seed, std::uint64_t digest)
{
    const std::uint64_t n = 64;      // image rows / row length
    const std::uint64_t nin = n / 2; // range samples per row
    auto *in = static_cast<cfloat *>(rt.memAlloc(n * nin * 8));
    auto *mid = static_cast<cfloat *>(rt.memAlloc(n * n * 8));
    auto *out = static_cast<cfloat *>(rt.memAlloc(n * n * 8));
    Rng rng(seed);
    for (std::uint64_t i = 0; i < n * nin; ++i)
        in[i] = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};
    rt.noteHostWrite(in, n * nin * 8);

    OpCall resmp;
    resmp.kind = AccelKind::RESMP;
    resmp.n = nin;
    resmp.m = n;
    resmp.complexData = true;
    resmp.resampleKind = 2;
    resmp.in0 = {rt.physOf(in),
                 {static_cast<std::int64_t>(nin * 8), 0, 0, 0}};
    resmp.out = {rt.physOf(mid),
                 {static_cast<std::int64_t>(n * 8), 0, 0, 0}};

    OpCall fft;
    fft.kind = AccelKind::FFT;
    fft.n = n;
    fft.m = 1;
    fft.complexData = true;
    fft.fftDir = -1;
    fft.in0 = {rt.physOf(mid),
               {static_cast<std::int64_t>(n * 8), 0, 0, 0}};
    fft.out = {rt.physOf(out),
               {static_cast<std::int64_t>(n * 8), 0, 0, 0}};

    LoopSpec rows;
    rows.dims = {static_cast<std::uint32_t>(n), 1, 1, 1};
    DescriptorProgram d1;
    d1.addLoop(rows, 2);
    d1.addComp(resmp);
    d1.addPassEnd();
    DescriptorProgram d2;
    d2.addLoop(rows, 2);
    d2.addComp(fft);
    d2.addPassEnd();

    for (unsigned k = 0; k < chain; ++k) {
        auto h1 = rt.accPlan(d1);
        auto h2 = rt.accPlan(d2);
        rt.accExecute(h1);
        rt.accExecute(h2);
        rt.accDestroy(h1);
        rt.accDestroy(h2);
    }
    digest = digestBytes(digest, out, n * n * 8);
    rt.memFree(in);
    rt.memFree(mid);
    rt.memFree(out);
    return digest;
}

/**
 * STAP-style chain: 4 * `chain` AXPY passes (the output-scaling stage
 * of Listing 1) through the dispatcher with the given fusion window.
 */
std::uint64_t
runStapChain(runtime::MealibRuntime &rt, unsigned chain,
             unsigned window, std::uint64_t seed, std::uint64_t digest)
{
    const std::int64_t n = 8192;
    auto *x = static_cast<float *>(rt.memAlloc(n * 4));
    auto *y = static_cast<float *>(rt.memAlloc(n * 4));
    Rng rng(seed ^ 0x5741ull);
    for (std::int64_t i = 0; i < n; ++i) {
        x[i] = rng.uniform(-1.0f, 1.0f);
        y[i] = rng.uniform(-1.0f, 1.0f);
    }
    rt.noteHostWrite(x, n * 4);
    rt.noteHostWrite(y, n * 4);

    auto costs = std::make_shared<dispatch::RooflineCostModel>();
    costs->setFusionWindow(window);
    dispatch::Dispatcher disp(dispatch::makePolicy("accel"));
    disp.setCostModel(costs);
    dispatch::RuntimeBackend backend(rt, window);
    disp.attachBackend(&backend);
    for (unsigned k = 0; k < 4 * chain; ++k) {
        const float a = 0.125f + 0.0625f * static_cast<float>(k % 8);
        dispatch::OpDesc d = dispatch::lowerSaxpy(n, a, x, 1, y, 1);
        disp.run(d, [&] { mkl::saxpy(n, a, x, 1, y, 1); });
    }
    disp.detachBackend(); // syncs the fusion window

    digest = digestBytes(digest, y, static_cast<std::size_t>(n) * 4);
    rt.memFree(x);
    rt.memFree(y);
    return digest;
}

Sample
runCell(std::uint64_t seed, unsigned chain, unsigned window,
        bool residency)
{
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 32_MiB;
    cfg.residency.enabled = residency;
    // Integrity on everywhere so the verify-elision counter is
    // exercised; its cost lands on the integrity ledger, not on the
    // invocation numbers the reduction bar measures.
    cfg.integrity.verifyTransfers = true;
    cfg.integrity.checksumSecondsPerByte = 1.0e-10;
    cfg.integrity.checksumJPerByte = 1.0e-12;
    runtime::MealibRuntime rt(cfg);

    Sample s{};
    s.seed = seed;
    s.chain = chain;
    s.window = window;
    s.residency = residency;

    std::uint64_t digest = bench::kFnvBasis;
    digest = runSarChain(rt, chain, seed, digest);
    s.sarInvocationS = rt.accounting().invocation.seconds;
    digest = runStapChain(rt, chain, window, seed, digest);
    s.stapInvocationS =
        rt.accounting().invocation.seconds - s.sarInvocationS;

    const runtime::RuntimeAccounting &a = rt.accounting();
    s.totalS = a.total().seconds;
    s.totalJ = a.total().joules;
    s.flushBytesElided = a.flushBytesElided;
    s.verifyBytesElided = a.verifyBytesElided;
    s.handshakesElided = a.handshakesElided;
    s.fusedPrograms = a.fusedPrograms;
    s.planImageReuses = a.planImageReuses;
    s.digest = digest;
    return s;
}

double
reductionPct(double base, double v)
{
    return base > 0.0 ? 100.0 * (base - v) / base : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli(argc, argv);
    const bool quick = cli.has("quick");
    const bool check = cli.has("check");
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cli.getInt("seed", 0));
    const std::string jsonPath = cli.get("json", "BENCH_reuse.json");

    bench::banner(
        "ablation: residency x fusion window x chain length "
        "(docs/RUNTIME.md)",
        "chained workloads stop paying the flush + START handshake for "
        "operands that never left the stack; outputs are bit-for-bit "
        "identical in every cell");

    const std::vector<unsigned> chains =
        quick ? std::vector<unsigned>{4} : std::vector<unsigned>{4, 16};
    const std::vector<unsigned> windows{1, 2, 8};

    std::vector<Sample> samples;
    for (unsigned chain : chains)
        for (unsigned window : windows)
            for (bool residency : {false, true})
                samples.push_back(
                    runCell(seed, chain, window, residency));

    // Reductions against the (off, window 1) twin of each chain length.
    for (Sample &s : samples) {
        for (const Sample &base : samples) {
            if (base.chain != s.chain || base.window != 1 ||
                base.residency)
                continue;
            s.sarReductionPct =
                reductionPct(base.sarInvocationS, s.sarInvocationS);
            s.stapReductionPct =
                reductionPct(base.stapInvocationS, s.stapInvocationS);
            s.invocationReductionPct = reductionPct(
                base.sarInvocationS + base.stapInvocationS,
                s.sarInvocationS + s.stapInvocationS);
        }
    }

    bench::Table t({"chain", "window", "residency", "sar invoc (us)",
                    "stap invoc (us)", "sar -%", "stap -%",
                    "flush elided (KiB)", "handshakes", "fused"});
    for (const Sample &s : samples)
        t.row({std::to_string(s.chain), std::to_string(s.window),
               s.residency ? "on" : "off",
               bench::fmt("%.2f", s.sarInvocationS * 1e6),
               bench::fmt("%.2f", s.stapInvocationS * 1e6),
               bench::fmt("%.1f", s.sarReductionPct),
               bench::fmt("%.1f", s.stapReductionPct),
               bench::fmt("%.1f",
                          static_cast<double>(s.flushBytesElided) /
                              1024.0),
               std::to_string(s.handshakesElided),
               std::to_string(s.fusedPrograms)});
    t.print();

    bench::JsonWriter json;
    json.meta("bench", "ablation_reuse");
    json.meta("experiment",
              "residency x fusion window x chain length "
              "(docs/RUNTIME.md)");
    json.meta("quick", quick);
    for (const Sample &s : samples) {
        json.beginRecord();
        json.field("seed", static_cast<double>(s.seed));
        json.field("chain", static_cast<double>(s.chain));
        json.field("fusion_window", static_cast<double>(s.window));
        json.field("residency", s.residency);
        json.field("sar_invocation_s", s.sarInvocationS);
        json.field("stap_invocation_s", s.stapInvocationS);
        json.field("invocation_s", s.sarInvocationS + s.stapInvocationS);
        json.field("total_s", s.totalS);
        json.field("total_j", s.totalJ);
        json.field("flush_bytes_elided",
                   static_cast<double>(s.flushBytesElided));
        json.field("verify_bytes_elided",
                   static_cast<double>(s.verifyBytesElided));
        json.field("handshakes_elided",
                   static_cast<double>(s.handshakesElided));
        json.field("fused_programs",
                   static_cast<double>(s.fusedPrograms));
        json.field("plan_image_reuses",
                   static_cast<double>(s.planImageReuses));
        json.field("digest", hex64(s.digest));
        json.field("invocation_reduction_pct",
                   s.invocationReductionPct);
        json.field("sar_reduction_pct", s.sarReductionPct);
        json.field("stap_reduction_pct", s.stapReductionPct);
        json.endRecord();
    }
    if (!json.writeFile(jsonPath.c_str())) {
        std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
        return 1;
    }
    std::printf("wrote %s (%zu records)\n", jsonPath.c_str(),
                samples.size());

    if (!check)
        return 0;

    // --- acceptance gates (CI) -----------------------------------------
    int rc = 0;
    for (unsigned chain : chains) {
        std::uint64_t digest = 0;
        bool first = true;
        for (const Sample &s : samples) {
            if (s.chain != chain)
                continue;
            if (first) {
                digest = s.digest;
                first = false;
            } else if (s.digest != digest) {
                std::fprintf(stderr,
                             "FAIL: digest diverges at chain=%u "
                             "window=%u residency=%d\n",
                             chain, s.window, s.residency);
                rc = 1;
            }
            if (s.planImageReuses == 0) {
                std::fprintf(stderr,
                             "FAIL: zero plan-image reuses at chain=%u "
                             "window=%u residency=%d\n",
                             chain, s.window, s.residency);
                rc = 1;
            }
            if (s.residency && s.flushBytesElided == 0) {
                std::fprintf(stderr,
                             "FAIL: zero flush bytes elided at "
                             "chain=%u window=%u\n",
                             chain, s.window);
                rc = 1;
            }
            if (s.residency && s.window == windows.back() &&
                (s.sarReductionPct < 20.0 ||
                 s.stapReductionPct < 20.0)) {
                std::fprintf(stderr,
                             "FAIL: reduction below 20%% at chain=%u "
                             "(sar %.1f%%, stap %.1f%%)\n",
                             chain, s.sarReductionPct,
                             s.stapReductionPct);
                rc = 1;
            }
        }
    }
    if (rc == 0)
        std::printf("check: digests identical, elision active, "
                    ">=20%% invocation reduction met\n");
    return rc;
}
