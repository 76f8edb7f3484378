// Tests for the DRAM page-policy and refresh extensions.

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "dram/params.hh"
#include "dram/stack.hh"
#include "dram/tracegen.hh"
#include "dram/vault.hh"
#include "hwmodel/profile.hh"

namespace mealib::dram {
namespace {

Trace
linearTrace(const DramParams &p, std::uint64_t bytes)
{
    TraceBuilder tb(p, 64_MiB);
    tb.addLinear(0, bytes, false);
    return tb.build();
}

Trace
randomTrace(const DramParams &p, std::uint64_t bytes, std::uint64_t seed)
{
    TraceBuilder tb(p, 64_MiB);
    Rng rng(seed);
    tb.addGather(0, 1_GiB, bytes / p.timing.burstBytes,
                 static_cast<std::uint32_t>(p.timing.burstBytes), false,
                 rng);
    return tb.build();
}

TEST(PagePolicy, OpenBeatsClosedOnSequentialStreams)
{
    DramParams p = hwmodel::hmcStackParams();
    Stack open(p, PagePolicy::Open);
    Stack closed(p, PagePolicy::Closed);
    Trace t = linearTrace(p, 8_MiB);
    double t_open = open.run(t).seconds;
    double t_closed = closed.run(t).seconds;
    EXPECT_LT(t_open, t_closed);
}

TEST(PagePolicy, ClosedCompetitiveOnRandomStreams)
{
    // Random traffic gets no reuse out of open rows; auto-precharge
    // hides tRP behind the next access, so closed-page must be at least
    // as fast (within noise) on a pure random stream.
    DramParams p = hwmodel::hmcStackParams();
    Stack open(p, PagePolicy::Open);
    Stack closed(p, PagePolicy::Closed);
    Trace t = randomTrace(p, 4_MiB, 7);
    double t_open = open.run(t).seconds;
    double t_closed = closed.run(t).seconds;
    EXPECT_LT(t_closed, t_open * 1.1);
}

TEST(PagePolicy, ClosedNeverHitsRows)
{
    DramParams p = hwmodel::hmcStackParams();
    Stack closed(p, PagePolicy::Closed);
    RunStats r = closed.run(linearTrace(p, 1_MiB));
    EXPECT_EQ(r.rowHits, 0u);
    EXPECT_EQ(r.rowMisses, r.activates);
}

TEST(Refresh, CountsProportionalToBusyTime)
{
    DramParams p = hwmodel::hmcStackParams();
    Stack s(p);
    RunStats small = s.run(linearTrace(p, 2_MiB));
    RunStats large = s.run(linearTrace(p, 16_MiB));
    EXPECT_GT(large.refreshes, small.refreshes);
}

TEST(Refresh, DisablingRefreshSpeedsThingsUp)
{
    DramParams with = hwmodel::hmcStackParams();
    DramParams without = hwmodel::hmcStackParams();
    without.timing.tREFI = 0;
    Stack sw(with), sn(without);
    Trace t = linearTrace(with, 16_MiB);
    RunStats rw = sw.run(t);
    RunStats rn = sn.run(t);
    EXPECT_GT(rw.seconds, rn.seconds);
    EXPECT_EQ(rn.refreshes, 0u);
    // tRFC/tREFI = 60/3900 => ~1.5% overhead; sanity-check the band.
    EXPECT_LT(rw.seconds / rn.seconds, 1.05);
}

TEST(Refresh, AddsEnergy)
{
    DramParams with = hwmodel::hmcStackParams();
    DramParams without = hwmodel::hmcStackParams();
    without.timing.tREFI = 0;
    Stack sw(with), sn(without);
    Trace t = linearTrace(with, 16_MiB);
    EXPECT_GT(sw.run(t).energyJ, sn.run(t).energyJ);
}

TEST(Refresh, Ddr3PaysMoreThanHmc)
{
    // 350 ns tRFC every 7.8 us on DDR3 vs 60 ns every 3.9 us on the
    // fine-grained 3D stack: the relative refresh tax is higher on DDR3.
    DramParams hmc = hwmodel::hmcStackParams();
    DramParams ddr = hwmodel::ddr3Params(2);
    double hmc_tax = static_cast<double>(hmc.timing.tRFC) /
                     static_cast<double>(hmc.timing.tREFI);
    double ddr_tax = static_cast<double>(ddr.timing.tRFC) /
                     static_cast<double>(ddr.timing.tREFI);
    EXPECT_GT(ddr_tax, hmc_tax);
}

} // namespace
} // namespace mealib::dram
