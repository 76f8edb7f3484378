// Tests for the 3D-DRAM simulator: timing invariants, row-buffer
// behaviour, scheduling, energy accounting and trace sampling.

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "dram/params.hh"
#include "dram/stack.hh"
#include "dram/tracegen.hh"
#include "dram/vault.hh"
#include "hwmodel/profile.hh"

namespace mealib::dram {
namespace {

Trace
linearTrace(const DramParams &p, std::uint64_t bytes, bool write = false)
{
    TraceBuilder tb(p, 64_MiB);
    tb.addLinear(0, bytes, write);
    return tb.build();
}

TEST(Params, HmcBandwidthMatchesTable3)
{
    DramParams p = hwmodel::hmcStackParams();
    // Table 3 quotes 510 GB/s for the MEALib stack; our organization
    // gives 512 GB/s peak (32 vaults x 16 GB/s).
    EXPECT_NEAR(p.peakInternalBandwidth(), 510.0e9, 15.0e9);
}

TEST(Params, Ddr3BandwidthScalesWithChannels)
{
    EXPECT_NEAR(hwmodel::ddr3Params(2).peakInternalBandwidth(), 25.6e9, 1e6);
    EXPECT_NEAR(hwmodel::ddr3Params(8).peakInternalBandwidth(), 102.4e9, 1e6);
}

TEST(Vault, SequentialStreamMostlyRowHits)
{
    DramParams p = hwmodel::hmcStackParams();
    Vault v(p.timing, p.org);
    std::vector<Request> q;
    for (Addr a = 0; a < 8 * p.org.rowBytes; a += p.timing.burstBytes)
        q.push_back({a, static_cast<std::uint32_t>(p.timing.burstBytes),
                     false});
    VaultStats s = v.service(q, 0);
    // One activate per row touched, hits for the rest.
    EXPECT_EQ(s.rowMisses, 8u);
    EXPECT_EQ(s.rowHits, q.size() - 8);
}

TEST(Vault, RandomStreamMostlyRowMisses)
{
    DramParams p = hwmodel::hmcStackParams();
    Vault v(p.timing, p.org);
    Rng rng(3);
    std::vector<Request> q;
    for (int i = 0; i < 512; ++i) {
        Addr a = rng.below(1_MiB / p.timing.burstBytes) *
                 p.timing.burstBytes;
        q.push_back({a, static_cast<std::uint32_t>(p.timing.burstBytes),
                     false});
    }
    VaultStats s = v.service(q, 0);
    EXPECT_GT(s.rowMisses, s.rowHits);
}

TEST(Vault, RowMissesSlowerThanHits)
{
    DramParams p = hwmodel::hmcStackParams();
    // All requests to the same row (hits after the first)...
    Vault v1(p.timing, p.org);
    std::vector<Request> hits;
    for (int i = 0; i < 64; ++i)
        hits.push_back({static_cast<Addr>((i % 8) * 32), 32, false});
    Cycles t_hits = v1.service(hits, 0).busyUntil;

    // ...versus ping-ponging between two rows of the same bank.
    Vault v2(p.timing, p.org, 1); // FCFS so the scheduler can't help
    std::vector<Request> misses;
    const Addr other =
        static_cast<Addr>(p.org.rowBytes * p.org.banksPerVault);
    for (int i = 0; i < 64; ++i)
        misses.push_back({i % 2 ? other : 0, 32, false});
    Cycles t_misses = v2.service(misses, 0).busyUntil;

    // Row ping-pong pays tRAS+tRP+tRCD per access vs tBURST per hit.
    EXPECT_LT(t_hits * 10, t_misses);
}

TEST(Vault, SchedulerWindowReordersForHits)
{
    DramParams p = hwmodel::hmcStackParams();
    // Interleave two row streams of the same bank: FCFS thrashes, a
    // window of 8 can batch same-row requests.
    std::vector<Request> q;
    const Addr rowB = static_cast<Addr>(p.org.rowBytes *
                                        p.org.banksPerVault);
    for (int i = 0; i < 32; ++i) {
        q.push_back({static_cast<Addr>((i % 8) * 32), 32, false});
        q.push_back({rowB + static_cast<Addr>((i % 8) * 32), 32, false});
    }
    Vault fcfs(p.timing, p.org, 1);
    Vault frfcfs(p.timing, p.org, 8);
    VaultStats s1 = fcfs.service(q, 0);
    VaultStats s2 = frfcfs.service(q, 0);
    EXPECT_LT(s2.rowMisses, s1.rowMisses);
    EXPECT_LE(s2.busyUntil, s1.busyUntil);
}

TEST(Vault, WritesPayWriteRecovery)
{
    DramParams p = hwmodel::hmcStackParams();
    std::vector<Request> reads, writes;
    // Alternate banks are irrelevant: hammer one bank's row boundary so
    // tWR lands on the critical path of the following activate.
    const Addr rowB = static_cast<Addr>(p.org.rowBytes *
                                        p.org.banksPerVault);
    for (int i = 0; i < 32; ++i) {
        Addr a = i % 2 ? rowB : 0;
        reads.push_back({a, 32, false});
        writes.push_back({a, 32, true});
    }
    Vault v1(p.timing, p.org, 1), v2(p.timing, p.org, 1);
    EXPECT_LT(v1.service(reads, 0).busyUntil,
              v2.service(writes, 0).busyUntil);
}

TEST(Vault, RejectsOversizedRequest)
{
    DramParams p = hwmodel::hmcStackParams();
    Vault v(p.timing, p.org);
    std::vector<Request> q{{0, 4096, false}};
    EXPECT_THROW(v.service(q, 0), PanicError);
}

TEST(Stack, BandwidthBelowPeak)
{
    DramParams p = hwmodel::hmcStackParams();
    Stack s(p);
    RunStats r = s.run(linearTrace(p, 32_MiB));
    EXPECT_LE(r.bandwidth(), p.peakInternalBandwidth() * 1.001);
    EXPECT_GT(r.bandwidth(), 0.0);
}

TEST(Stack, SequentialStreamNearPeak)
{
    DramParams p = hwmodel::hmcStackParams();
    Stack s(p);
    RunStats r = s.run(linearTrace(p, 32_MiB));
    // A pure sequential read stream should exceed 60% of peak on an
    // open-page stack.
    EXPECT_GT(r.bandwidth(), 0.6 * p.peakInternalBandwidth());
    EXPECT_GT(r.rowHitRate(), 0.8);
}

TEST(Stack, RandomStreamMuchSlowerThanSequential)
{
    DramParams p = hwmodel::hmcStackParams();
    Stack s(p);
    RunStats seq = s.run(linearTrace(p, 8_MiB));

    TraceBuilder tb(p, 64_MiB);
    Rng rng(17);
    tb.addGather(0, 1_GiB, 8_MiB / 4, 4, false, rng);
    RunStats rnd = s.run(tb.build());
    EXPECT_LT(rnd.bandwidth(), seq.bandwidth() / 4.0);
}

TEST(Stack, TimeScalesLinearlyWithTraffic)
{
    DramParams p = hwmodel::hmcStackParams();
    Stack s(p);
    RunStats a = s.run(linearTrace(p, 4_MiB));
    RunStats b = s.run(linearTrace(p, 16_MiB));
    EXPECT_NEAR(b.seconds / a.seconds, 4.0, 0.4);
}

TEST(Stack, SampledRunMatchesFullRun)
{
    DramParams p = hwmodel::hmcStackParams();
    Stack s(p);

    // Full simulation of 8 MiB...
    TraceBuilder full(p, 64_MiB);
    full.addLinear(0, 8_MiB, false);
    RunStats rf = s.run(full.build());

    // ...versus a 1 MiB sampled window extrapolated 8x.
    TraceBuilder sampled(p, 1_MiB);
    sampled.addLinear(0, 8_MiB, false);
    Trace t = sampled.build();
    EXPECT_LT(t.requests.size() * 4, 8_MiB / p.timing.burstBytes * 4);
    RunStats rs = s.run(t);

    EXPECT_NEAR(rs.seconds / rf.seconds, 1.0, 0.05);
    EXPECT_NEAR(rs.energyJ / rf.energyJ, 1.0, 0.05);
}

TEST(Stack, EnergyIncreasesWithRandomness)
{
    DramParams p = hwmodel::hmcStackParams();
    Stack s(p);
    RunStats seq = s.run(linearTrace(p, 8_MiB));

    TraceBuilder tb(p, 64_MiB);
    Rng rng(23);
    tb.addGather(0, 1_GiB, 8_MiB / 32, 32, false, rng);
    RunStats rnd = s.run(tb.build());
    // Same traffic, far more activates -> more energy.
    EXPECT_GT(rnd.energyJ, seq.energyJ);
    EXPECT_GT(rnd.activates, seq.activates * 2);
}

TEST(Stack, OwnershipExcludesSimultaneousUse)
{
    Stack s(hwmodel::hmcStackParams());
    s.acquire(Owner::Accelerator);
    EXPECT_THROW(s.acquire(Owner::Cpu), FatalError);
    s.release(Owner::Accelerator);
    EXPECT_NO_THROW(s.acquire(Owner::Cpu));
    s.release(Owner::Cpu);
}

TEST(Stack, ReleaseWithoutAcquireIsFatal)
{
    Stack s(hwmodel::hmcStackParams());
    EXPECT_THROW(s.release(Owner::Cpu), FatalError);
}

TEST(TraceBuilder, InterleavesStreamsProportionally)
{
    DramParams p = hwmodel::hmcStackParams();
    TraceBuilder tb(p, 64_MiB);
    tb.addLinear(0, 64_KiB, false);
    tb.addLinear(1_MiB, 64_KiB, true);
    Trace t = tb.build();

    // Within any prefix, the two streams should stay near 50/50.
    std::uint64_t reads = 0, writes = 0;
    std::size_t half = t.requests.size() / 2;
    for (std::size_t i = 0; i < half; ++i)
        (t.requests[i].isWrite ? writes : reads)++;
    EXPECT_NEAR(static_cast<double>(reads) / static_cast<double>(half),
                0.5, 0.05);
}

TEST(TraceBuilder, ScaleReflectsSampling)
{
    DramParams p = hwmodel::hmcStackParams();
    TraceBuilder tb(p, 1_MiB);
    tb.addLinear(0, 16_MiB, false);
    Trace t = tb.build();
    EXPECT_NEAR(t.scale(), 16.0, 0.2);
    EXPECT_EQ(t.totalBytes, 16_MiB);
}

TEST(TraceBuilder, StridedCoversRequestedChunks)
{
    DramParams p = hwmodel::hmcStackParams();
    TraceBuilder tb(p, 64_MiB);
    tb.addStrided(0, 64, 4096, 100, false);
    Trace t = tb.build();
    EXPECT_EQ(t.totalBytes, 6400u);
    std::uint64_t bytes = 0;
    for (const Request &r : t.requests)
        bytes += r.bytes;
    EXPECT_EQ(bytes, 6400u);
}

TEST(TraceBuilder, GatherStaysInRegion)
{
    DramParams p = hwmodel::hmcStackParams();
    TraceBuilder tb(p, 64_MiB);
    Rng rng(9);
    tb.addGather(4096, 8192, 1000, 4, false, rng);
    Trace t = tb.build();
    for (const Request &r : t.requests) {
        EXPECT_GE(r.addr, 4096u);
        EXPECT_LT(r.addr + r.bytes, 4096u + 8192u + p.timing.burstBytes);
    }
}

} // namespace
} // namespace mealib::dram
