// Tests for cross-command operand residency, flush/verify elision, and
// descriptor-program fusion (docs/RUNTIME.md, docs/DISPATCH.md).
//
// CI runs this binary under MEALIB_NUM_THREADS=1, 2 and 8: every
// assertion here — in particular the fused-vs-unfused memcmp — must
// hold for any thread count.

#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/sar.hh"
#include "apps/stap.hh"
#include "common/rng.hh"
#include "common/status.hh"
#include "dispatch/backend.hh"
#include "dispatch/dispatcher.hh"
#include "dispatch/opdesc.hh"
#include "dispatch/policy.hh"
#include "minimkl/blas1.hh"
#include "runtime/residency.hh"
#include "runtime/runtime.hh"

namespace mealib::runtime {
namespace {

using accel::AccelKind;
using accel::DescriptorProgram;
using accel::OpCall;
using mkl::cfloat;

// --- IntervalSet ------------------------------------------------------

TEST(IntervalSet, InsertCoalescesAdjacentAndOverlapping)
{
    IntervalSet s;
    s.insert(0, 100);
    s.insert(100, 200); // adjacent
    s.insert(150, 300); // overlapping
    EXPECT_EQ(s.rangeCount(), 1u);
    EXPECT_EQ(s.coveredBytes(0, 300), 300u);
    s.insert(400, 500); // disjoint
    EXPECT_EQ(s.rangeCount(), 2u);
    EXPECT_EQ(s.coveredBytes(0, 1000), 400u);
}

TEST(IntervalSet, EraseSplitsPartiallyCoveredRanges)
{
    IntervalSet s;
    s.insert(0, 1000);
    s.erase(400, 600);
    EXPECT_EQ(s.rangeCount(), 2u);
    EXPECT_EQ(s.coveredBytes(0, 1000), 800u);
    EXPECT_EQ(s.coveredBytes(400, 600), 0u);
    EXPECT_EQ(s.coveredBytes(300, 700), 200u);
    s.erase(0, 1000);
    EXPECT_TRUE(s.empty());
}

// --- ResidencyTracker -------------------------------------------------

TEST(Residency, CommitMakesFootprintFlushClean)
{
    ResidencyTracker t;
    std::vector<AccessInterval> iv = {{0, 1024, false},
                                      {2048, 3072, true}};
    EXPECT_EQ(t.flushCleanReadBytes(iv), 0u);
    t.commit(iv, /*verified=*/false);
    EXPECT_EQ(t.flushCleanReadBytes(iv), 1024u);
    EXPECT_EQ(ResidencyTracker::readBytes(iv), 1024u);
    // Unverified: the written range must not be verify-clean.
    EXPECT_EQ(t.verifyClean().coveredBytes(2048, 3072), 0u);
}

TEST(Residency, VerifiedCommitCachesChecksums)
{
    ResidencyTracker t;
    std::vector<AccessInterval> iv = {{0, 1024, false},
                                      {2048, 3072, true}};
    t.commit(iv, /*verified=*/true);
    EXPECT_EQ(t.verifyCleanBytes(iv), 2048u);
}

TEST(Residency, HostWriteDropsBothStates)
{
    ResidencyTracker t;
    std::vector<AccessInterval> iv = {{0, 4096, false}};
    t.commit(iv, true);
    t.hostWrite(1024, 2048);
    EXPECT_EQ(t.flushCleanReadBytes(iv), 3072u);
    EXPECT_EQ(t.verifyCleanBytes(iv), 3072u);
}

TEST(Residency, DropRangeForgetsAStackSpan)
{
    ResidencyTracker t;
    t.commit({{0, 4096, false}, {8192, 12288, false}}, true);
    t.dropRange(0, 8192); // e.g. stack 0 died
    EXPECT_EQ(t.flushClean().coveredBytes(0, 8192), 0u);
    EXPECT_EQ(t.flushClean().coveredBytes(8192, 12288), 4096u);
}

// --- runtime-level elision --------------------------------------------

RuntimeConfig
smallCfg(bool residency)
{
    RuntimeConfig cfg;
    cfg.backingBytes = 16_MiB;
    cfg.residency.enabled = residency;
    return cfg;
}

/** One 1D complex FFT program over freshly planned descriptors. */
OpCall
fftCall(Addr in, Addr out, std::uint64_t n)
{
    OpCall fft;
    fft.kind = AccelKind::FFT;
    fft.n = n;
    fft.m = 1;
    fft.complexData = true;
    fft.fftDir = -1;
    fft.in0 = {in, {0, 0, 0, 0}};
    fft.out = {out, {0, 0, 0, 0}};
    return fft;
}

TEST(Residency, ChainedCommandsHaveNonIncreasingInvocationCost)
{
    MealibRuntime rt(smallCfg(true));
    const std::uint64_t n = 1024;
    auto *in = static_cast<cfloat *>(rt.memAlloc(n * 8));
    auto *out = static_cast<cfloat *>(rt.memAlloc(n * 8));
    Rng rng(3);
    for (std::uint64_t i = 0; i < n; ++i)
        in[i] = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};
    rt.noteHostWrite(in, n * 8);

    DescriptorProgram d;
    d.addComp(fftCall(rt.physOf(in), rt.physOf(out), n));
    d.addPassEnd();

    std::vector<double> deltas;
    for (int k = 0; k < 5; ++k) {
        const double before = rt.accounting().invocation.seconds;
        auto h = rt.accPlan(d);
        rt.accExecute(h);
        rt.accDestroy(h);
        deltas.push_back(rt.accounting().invocation.seconds - before);
    }
    // Warm invocations elide the flush entirely: strictly cheaper than
    // the cold one, then flat.
    EXPECT_LT(deltas[1], deltas[0]);
    for (std::size_t k = 1; k + 1 < deltas.size(); ++k)
        EXPECT_LE(deltas[k + 1], deltas[k]);
    EXPECT_GT(rt.accounting().flushBytesElided, 0u);
    // The identical program was served from the descriptor-image memo.
    EXPECT_EQ(rt.accounting().planImageReuses, 4u);

    rt.memFree(in);
    rt.memFree(out);
}

TEST(Residency, ProgramsDifferingInOneEncodedFieldShareNoImage)
{
    // The memo is keyed by the encoded image: two live plans whose
    // programs differ only in alpha must each keep their own image, or
    // one would execute the other's alpha.
    MealibRuntime rt(smallCfg(false));
    const std::uint64_t n = 256;
    auto *x = static_cast<float *>(rt.memAlloc(n * 4));
    auto *y = static_cast<float *>(rt.memAlloc(n * 4));
    for (std::uint64_t i = 0; i < n; ++i) {
        x[i] = static_cast<float>(i) - 100.0f;
        y[i] = 0.0f;
    }
    auto plan = [&](float alpha) {
        OpCall c;
        c.kind = AccelKind::AXPY;
        c.n = n;
        c.alpha = alpha;
        c.beta = 0.0f; // y := alpha * x
        c.in0 = {rt.physOf(x), {0, 0, 0, 0}};
        c.out = {rt.physOf(y), {0, 0, 0, 0}};
        DescriptorProgram d;
        d.addComp(c);
        d.addPassEnd();
        return rt.accPlan(d);
    };

    const AccPlanHandle h2 = plan(2.0f);
    const AccPlanHandle h3 = plan(3.0f);
    const std::pair<AccPlanHandle, float> runs[] = {
        {h2, 2.0f}, {h3, 3.0f}, {h2, 2.0f}};
    for (const auto &[h, alpha] : runs) {
        rt.accExecute(h);
        for (std::uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(y[i], alpha * x[i]) << "alpha " << alpha << " i=" << i;
    }
    EXPECT_EQ(rt.accounting().planImageReuses, 0u);

    // The same program again, with its image's CR word now DONE, does
    // hit the memo.
    const AccPlanHandle again = plan(3.0f);
    EXPECT_EQ(rt.accounting().planImageReuses, 1u);
    for (AccPlanHandle h : {h2, h3, again})
        rt.accDestroy(h);
    rt.memFree(x);
    rt.memFree(y);
}

/** y := alpha * x + beta * y over @p n floats, as a one-pass program. */
DescriptorProgram
axpyProgram(MealibRuntime &rt, const float *x, float *y, std::uint64_t n,
            float alpha, float beta)
{
    OpCall c;
    c.kind = AccelKind::AXPY;
    c.n = n;
    c.alpha = alpha;
    c.beta = beta;
    c.in0 = {rt.physOf(x), {0, 0, 0, 0}};
    c.out = {rt.physOf(y), {0, 0, 0, 0}};
    DescriptorProgram d;
    d.addComp(c);
    d.addPassEnd();
    return d;
}

TEST(Residency, SeparatelyBuiltEqualProgramsShareOneImage)
{
    // The memo compares encoded images, not program objects: a program
    // rebuilt field for field lands on the image already in the command
    // space, and both plans run it.
    MealibRuntime rt(smallCfg(false));
    const std::uint64_t n = 256;
    auto *x = static_cast<float *>(rt.memAlloc(n * 4));
    auto *y = static_cast<float *>(rt.memAlloc(n * 4));
    for (std::uint64_t i = 0; i < n; ++i) {
        x[i] = static_cast<float>(i) - 100.0f;
        y[i] = 1.0f;
    }
    const AccPlanHandle h1 = rt.accPlan(axpyProgram(rt, x, y, n, 2.0f, 1.0f));
    const AccPlanHandle h2 = rt.accPlan(axpyProgram(rt, x, y, n, 2.0f, 1.0f));
    EXPECT_EQ(rt.accounting().planImageReuses, 1u);

    rt.accExecute(h1);
    rt.accExecute(h2);
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(y[i], 1.0f + 4.0f * x[i]) << "i=" << i;
    rt.accDestroy(h1);
    rt.accDestroy(h2);
    rt.memFree(x);
    rt.memFree(y);
}

TEST(Residency, ProgramsOnDifferentOperandsShareNoImage)
{
    // Operand addresses are part of the image: the same call over another
    // output buffer gets an image of its own, so running one plan never
    // writes the other's output.
    MealibRuntime rt(smallCfg(false));
    const std::uint64_t n = 256;
    auto *x = static_cast<float *>(rt.memAlloc(n * 4));
    auto *y1 = static_cast<float *>(rt.memAlloc(n * 4));
    auto *y2 = static_cast<float *>(rt.memAlloc(n * 4));
    for (std::uint64_t i = 0; i < n; ++i) {
        x[i] = static_cast<float>(i) - 100.0f;
        y1[i] = -1.0f;
        y2[i] = -1.0f;
    }
    const AccPlanHandle h1 =
        rt.accPlan(axpyProgram(rt, x, y1, n, 2.0f, 0.0f));
    const AccPlanHandle h2 =
        rt.accPlan(axpyProgram(rt, x, y2, n, 2.0f, 0.0f));
    EXPECT_EQ(rt.accounting().planImageReuses, 0u);

    rt.accExecute(h2);
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(y2[i], 2.0f * x[i]) << "i=" << i;
        ASSERT_EQ(y1[i], -1.0f) << "i=" << i;
    }
    rt.accExecute(h1);
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(y1[i], 2.0f * x[i]) << "i=" << i;
    rt.accDestroy(h1);
    rt.accDestroy(h2);
    rt.memFree(x);
    rt.memFree(y1);
    rt.memFree(y2);
}

TEST(Residency, HostWriteHazardRestoresColdFlushCost)
{
    MealibRuntime rt(smallCfg(true));
    const std::uint64_t n = 1024;
    auto *in = static_cast<cfloat *>(rt.memAlloc(n * 8));
    auto *out = static_cast<cfloat *>(rt.memAlloc(n * 8));
    for (std::uint64_t i = 0; i < n; ++i)
        in[i] = {1.0f, 0.0f};
    rt.noteHostWrite(in, n * 8);

    DescriptorProgram d;
    d.addComp(fftCall(rt.physOf(in), rt.physOf(out), n));
    d.addPassEnd();

    auto step = [&] {
        const double before = rt.accounting().invocation.seconds;
        auto h = rt.accPlan(d);
        rt.accExecute(h);
        rt.accDestroy(h);
        return rt.accounting().invocation.seconds - before;
    };
    const double cold = step();
    const double warm = step();
    EXPECT_LT(warm, cold);

    // The host rewrites the input: the next invocation pays the full
    // flush again, exactly the cold cost.
    for (std::uint64_t i = 0; i < n; ++i)
        in[i] = {2.0f, 0.0f};
    rt.noteHostWrite(in, n * 8);
    EXPECT_DOUBLE_EQ(step(), cold);

    rt.memFree(in);
    rt.memFree(out);
}

TEST(Residency, StackDeathDropsResidency)
{
    RuntimeConfig cfg;
    cfg.backingBytes = 32_MiB;
    cfg.numStacks = 2;
    cfg.residency.enabled = true;
    MealibRuntime rt(cfg);

    const std::uint64_t n = 1024;
    auto *in = static_cast<cfloat *>(rt.memAllocOn(1, n * 8));
    auto *out = static_cast<cfloat *>(rt.memAllocOn(1, n * 8));
    for (std::uint64_t i = 0; i < n; ++i)
        in[i] = {1.0f, 1.0f};
    rt.noteHostWrite(in, n * 8);

    DescriptorProgram d;
    d.addComp(fftCall(rt.physOf(in), rt.physOf(out), n));
    d.addPassEnd();
    auto h = rt.accPlan(d);
    rt.accExecute(h);
    rt.accDestroy(h);

    const Addr lo = rt.physOf(in);
    EXPECT_GT(rt.residency().flushClean().coveredBytes(lo, lo + n * 8),
              0u);
    rt.failStack(1);
    EXPECT_EQ(rt.residency().flushClean().coveredBytes(lo, lo + n * 8),
              0u);
}

TEST(Residency, MemFreeDropsResidency)
{
    MealibRuntime rt(smallCfg(true));
    const std::uint64_t n = 1024;
    auto *in = static_cast<cfloat *>(rt.memAlloc(n * 8));
    auto *out = static_cast<cfloat *>(rt.memAlloc(n * 8));
    for (std::uint64_t i = 0; i < n; ++i)
        in[i] = {1.0f, 1.0f};

    DescriptorProgram d;
    d.addComp(fftCall(rt.physOf(in), rt.physOf(out), n));
    d.addPassEnd();
    auto h = rt.accPlan(d);
    rt.accExecute(h);
    rt.accDestroy(h);

    const Addr lo = rt.physOf(in);
    EXPECT_GT(rt.residency().flushClean().coveredBytes(lo, lo + n * 8),
              0u);
    rt.memFree(in);
    EXPECT_EQ(rt.residency().flushClean().coveredBytes(lo, lo + n * 8),
              0u);
    rt.memFree(out);
}

TEST(Residency, VerifyElisionSkipsCachedChecksums)
{
    RuntimeConfig cfg = smallCfg(true);
    cfg.integrity.verifyTransfers = true;
    cfg.integrity.checksumSecondsPerByte = 1.0e-10;
    cfg.integrity.checksumJPerByte = 1.0e-12;
    MealibRuntime rt(cfg);

    const std::uint64_t n = 1024;
    auto *in = static_cast<cfloat *>(rt.memAlloc(n * 8));
    auto *out = static_cast<cfloat *>(rt.memAlloc(n * 8));
    for (std::uint64_t i = 0; i < n; ++i)
        in[i] = {1.0f, 0.0f};
    rt.noteHostWrite(in, n * 8);

    DescriptorProgram d;
    d.addComp(fftCall(rt.physOf(in), rt.physOf(out), n));
    d.addPassEnd();
    for (int k = 0; k < 3; ++k) {
        auto h = rt.accPlan(d);
        rt.accExecute(h);
        rt.accDestroy(h);
    }
    EXPECT_GT(rt.accounting().verifyBytesElided, 0u);

    rt.memFree(in);
    rt.memFree(out);
}

// --- app-level chains -------------------------------------------------

TEST(Residency, SarChainElidesFlushesWithIdenticalImage)
{
    MealibRuntime off(smallCfg(false));
    apps::SarResult roff = apps::runSarChain(64, false, off, 11);

    MealibRuntime on(smallCfg(true));
    apps::SarResult ron = apps::runSarChain(64, false, on, 11);

    // Functional output is byte-identical; only modeled cost moves.
    ASSERT_EQ(ron.image.size(), roff.image.size());
    EXPECT_EQ(std::memcmp(ron.image.data(), roff.image.data(),
                          roff.image.size() * sizeof(cfloat)),
              0);
    EXPECT_GT(on.accounting().flushBytesElided, 0u);
    EXPECT_LT(on.accounting().invocation.seconds,
              off.accounting().invocation.seconds);
    // Off-path neutrality: no reuse counter may move.
    EXPECT_EQ(off.accounting().flushBytesElided, 0u);
    EXPECT_EQ(off.accounting().verifyBytesElided, 0u);
    EXPECT_EQ(off.accounting().planImageReuses, 0u);
}

TEST(Residency, StapChainElidesFlushesWithIdenticalProducts)
{
    apps::StapParams p = apps::StapParams::smallSet();

    RuntimeConfig cfg;
    cfg.backingBytes = 64_MiB;
    MealibRuntime off(cfg);
    apps::StapResult roff = apps::runStapMealib(p, off);

    cfg.residency.enabled = true;
    MealibRuntime on(cfg);
    apps::StapResult ron = apps::runStapMealib(p, on);

    ASSERT_EQ(ron.prods.size(), roff.prods.size());
    EXPECT_EQ(std::memcmp(ron.prods.data(), roff.prods.data(),
                          roff.prods.size() * sizeof(cfloat)),
              0);
    EXPECT_GT(on.accounting().flushBytesElided, 0u);
    EXPECT_LE(ron.invocation.seconds, roff.invocation.seconds);
}

TEST(Residency, DisabledLayersAreBitForBitDeterministic)
{
    // The neutrality pin: with every reuse layer off, two identical
    // runs produce identical ledgers and identical outputs, and no
    // elision counter moves.
    auto run = [](apps::SarResult *res) {
        MealibRuntime rt(smallCfg(false));
        *res = apps::runSarChain(64, false, rt, 5);
        const RuntimeAccounting &a = rt.accounting();
        EXPECT_EQ(a.flushBytesElided, 0u);
        EXPECT_EQ(a.verifyBytesElided, 0u);
        EXPECT_EQ(a.handshakesElided, 0u);
        EXPECT_EQ(a.fusedPrograms, 0u);
        return a.total();
    };
    apps::SarResult r1, r2;
    const Cost t1 = run(&r1);
    const Cost t2 = run(&r2);
    EXPECT_DOUBLE_EQ(t1.seconds, t2.seconds);
    EXPECT_DOUBLE_EQ(t1.joules, t2.joules);
    EXPECT_EQ(std::memcmp(r1.image.data(), r2.image.data(),
                          r1.image.size() * sizeof(cfloat)),
              0);
}

TEST(Residency, ResetAccountingForgetsResidency)
{
    MealibRuntime rt(smallCfg(true));
    const std::uint64_t n = 1024;
    auto *in = static_cast<cfloat *>(rt.memAlloc(n * 8));
    auto *out = static_cast<cfloat *>(rt.memAlloc(n * 8));
    for (std::uint64_t i = 0; i < n; ++i)
        in[i] = {1.0f, 1.0f};

    DescriptorProgram d;
    d.addComp(fftCall(rt.physOf(in), rt.physOf(out), n));
    d.addPassEnd();
    auto h = rt.accPlan(d);
    rt.accExecute(h);
    rt.accDestroy(h);
    EXPECT_FALSE(rt.residency().flushClean().empty());
    rt.resetAccounting();
    EXPECT_TRUE(rt.residency().flushClean().empty());
    rt.memFree(in);
    rt.memFree(out);
}

} // namespace
} // namespace mealib::runtime

// --- descriptor-program fusion ----------------------------------------

namespace mealib::dispatch {
namespace {

/** Run a chain of AXPYs through the dispatcher with the given fusion
 * window; returns the final y vector and leaves counters in @p rt. */
std::vector<float>
runAxpyChain(runtime::MealibRuntime &rt, unsigned window)
{
    const std::int64_t n = 4096;
    auto *x = static_cast<float *>(rt.memAlloc(n * 4));
    auto *y = static_cast<float *>(rt.memAlloc(n * 4));
    Rng rng(17);
    for (std::int64_t i = 0; i < n; ++i) {
        x[i] = rng.uniform(-1.0f, 1.0f);
        y[i] = rng.uniform(-1.0f, 1.0f);
    }

    Dispatcher disp(makePolicy("accel"));
    RuntimeBackend backend(rt, window);
    disp.attachBackend(&backend);
    for (int k = 0; k < 8; ++k) {
        const float a = 0.25f + 0.125f * static_cast<float>(k);
        OpDesc d = lowerSaxpy(n, a, x, 1, y, 1);
        disp.run(d, [&] { mkl::saxpy(n, a, x, 1, y, 1); });
    }
    disp.detachBackend(); // syncs any still-buffered calls

    std::vector<float> result(y, y + n);
    rt.memFree(x);
    rt.memFree(y);
    return result;
}

TEST(Fusion, FusedChainIsNumericallyIdenticalAndCheaper)
{
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 16_MiB;

    runtime::MealibRuntime unfused(cfg);
    std::vector<float> y1 = runAxpyChain(unfused, 1);
    EXPECT_EQ(unfused.accounting().fusedPrograms, 0u);
    EXPECT_EQ(unfused.accounting().handshakesElided, 0u);

    runtime::MealibRuntime fused(cfg);
    std::vector<float> y4 = runAxpyChain(fused, 4);
    // 8 calls, window 4: two fused programs, six handshakes saved.
    EXPECT_EQ(fused.accounting().fusedPrograms, 2u);
    EXPECT_EQ(fused.accounting().handshakesElided, 6u);

    // Bit-for-bit identical results for every MEALIB_NUM_THREADS.
    EXPECT_EQ(std::memcmp(y1.data(), y4.data(), y1.size() * 4), 0);

    // Fewer invocations: the fused run's flush+handshake cost is
    // strictly below the unfused run's.
    EXPECT_LT(fused.accounting().invocation.seconds,
              unfused.accounting().invocation.seconds);
}

TEST(Fusion, WindowFlushesOnSyncBeforeHostReadback)
{
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 16_MiB;
    runtime::MealibRuntime rt(cfg);

    const std::int64_t n = 256;
    auto *x = static_cast<float *>(rt.memAlloc(n * 4));
    auto *y = static_cast<float *>(rt.memAlloc(n * 4));
    for (std::int64_t i = 0; i < n; ++i) {
        x[i] = 1.0f;
        y[i] = 0.0f;
    }

    Dispatcher disp(makePolicy("accel"));
    RuntimeBackend backend(rt, 8); // window never fills on its own
    disp.attachBackend(&backend);
    OpDesc d = lowerSaxpy(n, 3.0f, x, 1, y, 1);
    disp.run(d, [&] { mkl::saxpy(n, 3.0f, x, 1, y, 1); });
    EXPECT_EQ(backend.pendingCount(), 1u);
    backend.sync();
    EXPECT_EQ(backend.pendingCount(), 0u);
    EXPECT_FLOAT_EQ(y[0], 3.0f);
    disp.detachBackend();

    rt.memFree(x);
    rt.memFree(y);
}

} // namespace
} // namespace mealib::dispatch
