// Integration tests for the STAP and SAR applications: functional
// equivalence between host and accelerated execution, and the Fig. 12/13
// relationships.

#include <complex>

#include <gtest/gtest.h>

#include "apps/sar.hh"
#include "apps/stap.hh"
#include "common/logging.hh"
#include "dispatch/dispatcher.hh"
#include "hwmodel/profile.hh"

namespace mealib::apps {
namespace {

runtime::MealibRuntime &
functionalRt()
{
    static runtime::RuntimeConfig cfg = [] {
        runtime::RuntimeConfig c;
        c.backingBytes = 128_MiB;
        return c;
    }();
    static runtime::MealibRuntime rt(cfg);
    return rt;
}

TEST(Stap, HostAndMealibProduceIdenticalOutput)
{
    StapParams p = StapParams::smallSet();
    StapResult host = runStapHost(p);
    StapResult mea = runStapMealib(p, functionalRt());
    ASSERT_EQ(host.prods.size(), mea.prods.size());
    for (std::size_t i = 0; i < host.prods.size(); ++i)
        ASSERT_EQ(host.prods[i], mea.prods[i]) << "i=" << i;
}

TEST(Stap, ExplicitProfileRuntimePricesIdleFromItsOwnHost)
{
    // A runtime built from an explicit profile prices every stage,
    // package idle included, from its own host: the run matches, bit
    // for bit, one made with that profile active.
    StapParams p = StapParams::smallSet();
    runtime::RuntimeConfig explicitCfg(hwmodel::profile("xeonphi5110p"));
    explicitCfg.backingBytes = 128_MiB;
    runtime::MealibRuntime explicitRt(explicitCfg);
    StapResult viaProfile = runStapMealib(p, explicitRt);

    hwmodel::setActiveMachine("phi").orThrow();
    runtime::RuntimeConfig activeCfg;
    activeCfg.backingBytes = 128_MiB;
    runtime::MealibRuntime activeRt(activeCfg);
    StapResult viaActive = runStapMealib(p, activeRt);
    hwmodel::setActiveMachine("haswell4770k").orThrow();

    EXPECT_EQ(viaProfile.ledger.total().seconds,
              viaActive.ledger.total().seconds);
    EXPECT_EQ(viaProfile.ledger.total().joules,
              viaActive.ledger.total().joules);
    EXPECT_EQ(viaProfile.host.seconds, viaActive.host.seconds);
    EXPECT_EQ(viaProfile.host.joules, viaActive.host.joules);
}

TEST(Stap, OutputIsNonTrivial)
{
    StapResult r = runStapHost(StapParams::smallSet());
    double energy = 0.0;
    for (auto v : r.prods)
        energy += std::norm(v);
    EXPECT_GT(energy, 0.0);
    EXPECT_TRUE(std::isfinite(energy));
}

TEST(Stap, MealibFasterAndMoreEfficient)
{
    // Fig. 13: >1x performance and larger EDP gains on every set.
    StapParams p = StapParams::smallSet();
    StapResult host = runStapHost(p);
    StapResult mea = runStapMealib(p, functionalRt());
    double perf = host.total().seconds / mea.total().seconds;
    double edp = host.total().edp() / mea.total().edp();
    EXPECT_GT(perf, 1.3);
    EXPECT_LT(perf, 6.0);
    EXPECT_GT(edp, perf); // EDP gain exceeds the speedup
}

TEST(Stap, GainGrowsWithDataSetSize)
{
    // Fig. 13: small 2.0x -> medium 2.3x -> large 3.2x.
    StapResult hs = runStapHost(StapParams::smallSet());
    StapResult ms = runStapMealib(StapParams::smallSet(),
                                  functionalRt());
    StapResult hm = runStapHost(StapParams::mediumSet());
    StapResult mm = runStapMealib(StapParams::mediumSet(),
                                  functionalRt());
    double g_small = hs.total().seconds / ms.total().seconds;
    double g_medium = hm.total().seconds / mm.total().seconds;
    EXPECT_GT(g_medium, g_small);
}

TEST(Stap, ThreeDescriptorsCompactMillionsOfCalls)
{
    // Sec. 5.5: ~17M library calls -> 3 accelerator descriptors.
    StapParams p = StapParams::smallSet();
    StapResult mea = runStapMealib(p, functionalRt());
    EXPECT_EQ(mea.descriptors, 3u);
    EXPECT_GT(mea.libraryCalls, p.dotCalls());
}

TEST(Stap, BreakdownShapeMatchesFig14)
{
    StapParams p = StapParams::mediumSet();
    StapResult mea = runStapMealib(p, functionalRt());

    // Fig. 14a: the host dominates both time and energy.
    double t_host = mea.host.seconds / mea.total().seconds;
    double e_host = mea.host.joules / mea.total().joules;
    EXPECT_GT(t_host, 0.5);
    EXPECT_GT(e_host, t_host); // energy share exceeds time share

    // Fig. 14b: DOT dominates the accelerator portion; AXPY is least
    // among the heavy hitters.
    double t_dot = mea.timeByAccel.fraction("DOT");
    EXPECT_GT(t_dot, 0.5);
    EXPECT_GT(mea.timeByAccel.get("DOT"),
              mea.timeByAccel.get("AXPY"));
    EXPECT_GT(mea.energyByAccel.fraction("DOT"), 0.5);

    // Invocation cost stays a small share of the accelerator total.
    double inv_share =
        mea.invocation.seconds /
        (mea.invocation.seconds + mea.accel.seconds);
    EXPECT_LT(inv_share, 0.5);
}

TEST(Stap, HostPipelineDispatchesEveryLibraryCallOnce)
{
    // Each MKL-signature call of the host pipeline (Table 4) reaches the
    // calling thread's dispatcher exactly once, under its own kind.
    using dispatch::OpKind;
    const StapParams p = StapParams::smallSet();
    dispatch::Dispatcher disp;
    dispatch::Dispatcher *prev = dispatch::bindCurrentDispatcher(&disp);
    runStapHost(p);
    dispatch::bindCurrentDispatcher(prev);

    const dispatch::DispatchStats s = disp.snapshot();
    const std::uint64_t blocks = p.nDop * p.nBlocks;
    EXPECT_EQ(s.of(OpKind::Transpose).calls, p.nChan); // mkl_comatcopy
    EXPECT_EQ(s.of(OpKind::Fft).calls, 1u);            // fftwf_execute
    EXPECT_EQ(s.of(OpKind::Herk).calls, blocks);       // cblas_cherk
    EXPECT_EQ(s.of(OpKind::Trsm).calls, 2 * blocks);   // cblas_ctrsm
    EXPECT_EQ(s.of(OpKind::Dot).calls, p.dotCalls());  // cblas_cdotc_sub
    EXPECT_EQ(s.of(OpKind::Axpy).calls, 1u);           // cblas_caxpy
    // No other kind: 12 + 1 + 256 + 512 + 65536 + 1.
    EXPECT_EQ(s.totalCalls(), 66318u);
}

TEST(Stap, ParamsDeriveConsistentShapes)
{
    StapParams p = StapParams::largeSet();
    EXPECT_EQ(p.dotCalls(), 256u * 16 * 64 * 64); // ~16.7M (Sec. 3.1)
    EXPECT_EQ(p.nRange(), p.nBlocks * p.tbs);
    EXPECT_EQ(p.dofLen(), p.nChan * p.tdof);
}

TEST(Sar, HardwareAndSoftwareChainingProduceSameImage)
{
    SarResult hw = runSarChain(64, true, functionalRt());
    SarResult sw = runSarChain(64, false, functionalRt());
    ASSERT_EQ(hw.image.size(), sw.image.size());
    for (std::size_t i = 0; i < hw.image.size(); ++i)
        ASSERT_EQ(hw.image[i], sw.image[i]);
    EXPECT_EQ(hw.descriptors, 1u);
    EXPECT_EQ(sw.descriptors, 2u);
}

TEST(Sar, HardwareChainingIsFaster)
{
    SarResult hw = runSarChain(128, true, functionalRt());
    SarResult sw = runSarChain(128, false, functionalRt());
    EXPECT_GT(sw.total.seconds, hw.total.seconds);
}

TEST(Sar, ChainingAdvantageShrinksWithSize)
{
    // Fig. 12a: the gap narrows as the problem grows.
    runtime::RuntimeConfig cfg;
    cfg.functional = false;
    cfg.backingBytes = 8_MiB;
    runtime::MealibRuntime rt(cfg);
    double r_small = runSarChain(256, false, rt).total.seconds /
                     runSarChain(256, true, rt).total.seconds;
    double r_large = runSarChain(4096, false, rt).total.seconds /
                     runSarChain(4096, true, rt).total.seconds;
    EXPECT_GT(r_small, r_large);
    EXPECT_GT(r_small, 1.2);
    EXPECT_GT(r_large, 1.0);
}

TEST(Sar, NonPowerOfTwoIsFatal)
{
    EXPECT_THROW(runSarChain(100, true, functionalRt()), FatalError);
}

TEST(FftLoop, HardwareLoopBeatsSoftwareLoop)
{
    // Fig. 12b: 9.5x at 256^2, decaying with size.
    runtime::RuntimeConfig cfg;
    cfg.functional = false;
    cfg.backingBytes = 8_MiB;
    runtime::MealibRuntime rt(cfg);
    FftLoopResult hw = runFftLoop(256, 128, true, rt);
    FftLoopResult sw = runFftLoop(256, 128, false, rt);
    EXPECT_EQ(hw.descriptors, 1u);
    EXPECT_EQ(sw.descriptors, 128u);
    double ratio = sw.total.seconds / hw.total.seconds;
    EXPECT_GT(ratio, 4.0);
    EXPECT_LT(ratio, 20.0);

    double big = runFftLoop(4096, 128, false, rt).total.seconds /
                 runFftLoop(4096, 128, true, rt).total.seconds;
    EXPECT_LT(big, ratio);
    EXPECT_GT(big, 1.0);
}

TEST(FftLoop, FunctionalModeComputesRealFfts)
{
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 32_MiB;
    runtime::MealibRuntime rt(cfg);
    // Just exercises the functional path end to end (small sizes).
    FftLoopResult r = runFftLoop(32, 4, true, rt);
    EXPECT_GT(r.total.seconds, 0.0);
}

TEST(Stap, LedgerTotalsMatchResultAccounting)
{
    // Acceptance pin of the energy-ledger refactor: on the full STAP
    // pipeline the ledger's cross-layer totals equal the per-layer
    // accounting sum within 1e-12 (relative), and its component
    // attribution partitions the same joules.
    StapParams p = StapParams::smallSet();
    StapResult mea = runStapMealib(p, functionalRt());

    const Cost total = mea.total();
    const Cost ledger = mea.ledger.total();
    ASSERT_GT(total.joules, 0.0);
    EXPECT_NEAR(ledger.seconds, total.seconds, 1e-12 * total.seconds);
    EXPECT_NEAR(ledger.joules, total.joules, 1e-12 * total.joules);

    double attributed = 0.0;
    for (const auto &[name, j] : mea.ledger.energyByComponent().parts())
        attributed += j;
    EXPECT_NEAR(attributed, ledger.joules, 1e-12 * ledger.joules);

    // The three pipeline descriptors ran near memory: the DRAM share
    // dominates the accelerator side, and GFLOPS/W is finite.
    EXPECT_GT(mea.ledger.energyByComponent().get("dram"), 0.0);
    EXPECT_GT(mea.ledger.gflopsPerWatt(), 0.0);

    // The host baseline builds its ledger locally; same identity.
    StapResult host = runStapHost(p);
    EXPECT_NEAR(host.ledger.total().joules, host.total().joules,
                1e-12 * host.total().joules);
    EXPECT_NEAR(host.ledger.total().seconds, host.total().seconds,
                1e-12 * host.total().seconds);
}

} // namespace
} // namespace mealib::apps
