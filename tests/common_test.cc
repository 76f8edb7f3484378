// Unit tests for the common substrate: logging, units, RNG, stats, CLI.

#include <gtest/gtest.h>

#include "common/cli.hh"
#include "common/ledger.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/units.hh"

namespace mealib {
namespace {

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config: ", 42), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("broken invariant"), PanicError);
}

TEST(Logging, FatalIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(fatalIf(false, "nope"));
    EXPECT_THROW(fatalIf(true, "yes"), FatalError);
}

TEST(Logging, MessageCarriesStreamedParts)
{
    try {
        fatal("value=", 7, " name=", "x");
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value=7 name=x");
    }
}

TEST(Units, ByteLiterals)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(1_MiB, 1024u * 1024u);
    EXPECT_EQ(4_GiB, 4ull << 30);
}

TEST(Units, FrequencyAndBandwidthLiterals)
{
    EXPECT_DOUBLE_EQ(3.5_GHz, 3.5e9);
    EXPECT_DOUBLE_EQ(25.6_GBps, 25.6e9);
    EXPECT_DOUBLE_EQ(1.0_ns, 1e-9);
    EXPECT_DOUBLE_EQ(1.0_pJ, 1e-12);
}

TEST(Units, CostComposition)
{
    Cost a{1.0, 10.0};
    Cost b{2.0, 5.0};
    Cost s = a + b;
    EXPECT_DOUBLE_EQ(s.seconds, 3.0);
    EXPECT_DOUBLE_EQ(s.joules, 15.0);

    Cost o = overlap(a, b);
    EXPECT_DOUBLE_EQ(o.seconds, 2.0);
    EXPECT_DOUBLE_EQ(o.joules, 15.0);
}

TEST(Units, CostDerivedMetrics)
{
    Cost c{2.0, 10.0};
    EXPECT_DOUBLE_EQ(c.watts(), 5.0);
    EXPECT_DOUBLE_EQ(c.edp(), 20.0);
    EXPECT_DOUBLE_EQ(Cost{}.watts(), 0.0);
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(11);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BelowStaysBelow)
{
    Rng r(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Stats, ScalarBasics)
{
    ScalarStat s;
    s.sample(1.0);
    s.sample(3.0);
    s.sample(5.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
}

TEST(Stats, EmptyScalarIsZero)
{
    ScalarStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, BreakdownFractions)
{
    Breakdown b;
    b.add("host", 75.0);
    b.add("accel", 25.0);
    EXPECT_DOUBLE_EQ(b.total(), 100.0);
    EXPECT_DOUBLE_EQ(b.fraction("host"), 0.75);
    EXPECT_DOUBLE_EQ(b.get("missing"), 0.0);
}

TEST(Stats, BreakdownAccumulates)
{
    Breakdown b;
    b.add("x", 1.0);
    b.add("x", 2.0);
    EXPECT_DOUBLE_EQ(b.get("x"), 3.0);
}

TEST(Cli, FlagForms)
{
    const char *argv[] = {"prog", "--verbose", "--size=128",
                          "--name", "foo", "positional"};
    Cli cli(6, argv);
    EXPECT_TRUE(cli.has("verbose"));
    EXPECT_FALSE(cli.has("absent"));
    EXPECT_EQ(cli.getInt("size", 0), 128);
    EXPECT_EQ(cli.get("name", ""), "foo");
    ASSERT_EQ(cli.positional().size(), 1u);
    EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, DefaultsWhenAbsent)
{
    const char *argv[] = {"prog"};
    Cli cli(1, argv);
    EXPECT_EQ(cli.getInt("n", 42), 42);
    EXPECT_DOUBLE_EQ(cli.getDouble("f", 2.5), 2.5);
    EXPECT_EQ(cli.get("s", "dft"), "dft");
}

TEST(Cli, BadIntegerIsFatal)
{
    const char *argv[] = {"prog", "--n=abc"};
    Cli cli(2, argv);
    EXPECT_THROW(cli.getInt("n", 0), FatalError);
}

TEST(Units, EnergyAndPowerLiterals)
{
    EXPECT_DOUBLE_EQ(4.0_pJ, 4.0e-12);
    EXPECT_DOUBLE_EQ(0.7_nJ, 0.7e-9);
    EXPECT_DOUBLE_EQ(55.0_mW, 0.055);
    EXPECT_DOUBLE_EQ(20.0_us, 20.0e-6);
    EXPECT_DOUBLE_EQ(1.5_ms, 1.5e-3);
    EXPECT_DOUBLE_EQ(800.0_MHz, 0.8e9);
}

TEST(Units, OverlapTakesMaxTimeAndSumsEnergy)
{
    Cost fast{1.0, 4.0};
    Cost slow{3.0, 2.0};
    Cost o = overlap(fast, slow);
    EXPECT_DOUBLE_EQ(o.seconds, 3.0);
    EXPECT_DOUBLE_EQ(o.joules, 6.0);
    // Commutative, and a zero-cost branch contributes only energy.
    Cost o2 = overlap(slow, fast);
    EXPECT_DOUBLE_EQ(o2.seconds, o.seconds);
    EXPECT_DOUBLE_EQ(o2.joules, o.joules);
    Cost o3 = overlap(fast, Cost{});
    EXPECT_DOUBLE_EQ(o3.seconds, 1.0);
    EXPECT_DOUBLE_EQ(o3.joules, 4.0);
}

TEST(Units, WattsOnZeroLengthIntervalIsZero)
{
    // A zero-length interval has no meaningful average power, even if
    // energy was booked against it (e.g. a package-idle correction).
    EXPECT_DOUBLE_EQ((Cost{0.0, 5.0}.watts()), 0.0);
    EXPECT_DOUBLE_EQ((Cost{0.0, 5.0}.edp()), 0.0);
}

TEST(Ledger, PostAccumulatesTracksAndTotal)
{
    EnergyLedger l;
    l.post("host", {1.0, 2.0}, "kernel");
    l.post("host", {0.5, 1.0}, "kernel");
    l.post("accel", {2.0, 3.0});
    EXPECT_DOUBLE_EQ(l.track("host").seconds, 1.5);
    EXPECT_DOUBLE_EQ(l.track("host").joules, 3.0);
    EXPECT_DOUBLE_EQ(l.total().seconds, 3.5);
    EXPECT_DOUBLE_EQ(l.total().joules, 6.0);
    EXPECT_DOUBLE_EQ(l.track("nope").seconds, 0.0);
    auto it = l.events().find("host/kernel");
    ASSERT_NE(it, l.events().end());
    EXPECT_EQ(it->second.count, 2u);
    EXPECT_DOUBLE_EQ(it->second.cost.joules, 3.0);
}

TEST(Ledger, AttributionNeverChangesTotal)
{
    EnergyLedger l;
    l.post("accel", {1.0, 10.0});
    Cost before = l.total();
    l.attribute("dram", 6.0);
    l.attribute("logic", 3.0);
    l.attribute("noc", 1.0);
    EXPECT_DOUBLE_EQ(l.total().seconds, before.seconds);
    EXPECT_DOUBLE_EQ(l.total().joules, before.joules);
    EXPECT_DOUBLE_EQ(l.energyByComponent().get("dram"), 6.0);
    EXPECT_DOUBLE_EQ(l.energyByComponent().get("logic"), 3.0);
}

TEST(Ledger, CountersAndAccelAttributionNeverChangeTotal)
{
    EnergyLedger l;
    l.post("accel", {1.0, 10.0});
    l.attributeAccel("DOT", {0.75, 6.0});
    l.attributeAccel("DOT", {0.25, 4.0});
    l.count("retries", 2);
    l.count("retries");
    l.count("fallbacks", 0); // a zero bump records nothing
    EXPECT_DOUBLE_EQ(l.total().seconds, 1.0);
    EXPECT_DOUBLE_EQ(l.total().joules, 10.0);
    EXPECT_DOUBLE_EQ(l.costByAccel().at("DOT").seconds, 1.0);
    EXPECT_DOUBLE_EQ(l.costByAccel().at("DOT").joules, 10.0);
    EXPECT_EQ(l.counter("retries"), 3u);
    EXPECT_EQ(l.counter("fallbacks"), 0u);
    EXPECT_EQ(l.counters().size(), 1u);
}

TEST(Ledger, GflopsPerWattUsesRunTotals)
{
    EnergyLedger l;
    l.post("host", {2.0, 10.0});
    l.addFlops(20e9);
    // 10 GFLOP/s at 5 W average power.
    EXPECT_DOUBLE_EQ(l.gflopsPerWatt(), 2.0);
    EXPECT_DOUBLE_EQ(l.edp(), 20.0);
    EnergyLedger empty;
    EXPECT_DOUBLE_EQ(empty.gflopsPerWatt(), 0.0);
}

TEST(Ledger, ResetClearsEverything)
{
    EnergyLedger l;
    l.post("host", {1.0, 1.0}, "k");
    l.attribute("host", 1.0);
    l.attributeAccel("AXPY", {1.0, 1.0});
    l.count("retries");
    l.addFlops(1e9);
    l.reset();
    EXPECT_DOUBLE_EQ(l.total().joules, 0.0);
    EXPECT_TRUE(l.tracks().empty());
    EXPECT_TRUE(l.events().empty());
    EXPECT_TRUE(l.energyByComponent().parts().empty());
    EXPECT_TRUE(l.costByAccel().empty());
    EXPECT_TRUE(l.counters().empty());
    EXPECT_DOUBLE_EQ(l.flops(), 0.0);
}

TEST(Ledger, JsonCarriesMachineTracksAndComponents)
{
    EnergyLedger l;
    l.post("accel", {0.25, 1.5}, "execute");
    l.attribute("dram", 1.0);
    l.attributeAccel("DOT", {0.25, 1.5});
    l.count("retries", 3);
    std::string j = l.toJson("haswell4770k");
    EXPECT_NE(j.find("\"cost_by_accel\": {\n    \"DOT\""),
              std::string::npos);
    EXPECT_NE(j.find("\"retries\": 3"), std::string::npos);
    EXPECT_NE(j.find("\"machine\": \"haswell4770k\""),
              std::string::npos);
    EXPECT_NE(j.find("\"accel\""), std::string::npos);
    EXPECT_NE(j.find("\"dram\": 1"), std::string::npos);
    EXPECT_NE(j.find("\"accel/execute\": {\"count\": 1"),
              std::string::npos);
    EXPECT_NE(j.find("\"gflops_per_watt\""), std::string::npos);
}

} // namespace
} // namespace mealib
