// Tests for the analytical host CPU model.

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "host/cpu.hh"
#include "hwmodel/profile.hh"

namespace mealib::host {
namespace {

KernelProfile
streamingProfile(double bytes)
{
    KernelProfile p;
    p.name = "stream";
    p.flops = bytes / 8.0; // well below the roofline ridge
    p.bytesRead = bytes * 2.0 / 3.0;
    p.bytesWritten = bytes / 3.0;
    p.memEff = 0.8;
    return p;
}

TEST(CpuParams, HaswellMatchesPaperFootnote)
{
    CpuParams p = hwmodel::haswell4770kParams();
    // Footnote 1: 112 GFLOPS peak at 3.5 GHz, 25.6 GB/s.
    EXPECT_NEAR(p.peakFlops(), 112e9, 1e9);
    EXPECT_NEAR(p.memBandwidth, 25.6e9, 1e6);
}

TEST(CpuModel, MemoryBoundKernelPinnedAtBandwidth)
{
    CpuModel m(hwmodel::haswell4770kParams());
    Cost c = m.run(streamingProfile(1e9));
    double bw = 1e9 / c.seconds;
    // Achieved bandwidth must sit at memEff * peak, not at the flops
    // roofline.
    EXPECT_NEAR(bw, 0.8 * 25.6e9, 0.01 * 25.6e9);
}

TEST(CpuModel, ComputeBoundKernelPinnedAtFlops)
{
    CpuModel m(hwmodel::haswell4770kParams());
    KernelProfile p;
    p.name = "gemm-ish";
    p.flops = 1e11;
    p.bytesRead = 1e7; // tiny traffic
    p.simdEff = 1.0;
    Cost c = m.run(p);
    double gf = p.flops / c.seconds;
    EXPECT_NEAR(gf, 112e9, 2e9);
}

TEST(CpuModel, HaswellStreamingPowerNearMeasured)
{
    // The paper reports ~48 W package power for the FFT run on Haswell.
    CpuModel m(hwmodel::haswell4770kParams());
    Cost c = m.run(streamingProfile(4e9));
    EXPECT_GT(c.watts(), 30.0);
    EXPECT_LT(c.watts(), 60.0);
}

TEST(CpuModel, PhiBurnsMorePowerThanHaswell)
{
    CpuModel hw(hwmodel::haswell4770kParams());
    CpuModel phi(hwmodel::xeonPhi5110pParams());
    KernelProfile p = streamingProfile(4e9);
    Cost chw = hw.run(p);
    Cost cphi = phi.run(p);
    // Sec. 5.1: Phi draws ~130 W vs ~48 W on Haswell.
    EXPECT_GT(cphi.watts(), 2.0 * chw.watts());
}

TEST(CpuModel, AmdahlLimitsSerialKernels)
{
    CpuModel m(hwmodel::haswell4770kParams());
    KernelProfile par;
    par.flops = 1e10;
    par.bytesRead = 1.0;
    par.parallelFraction = 1.0;
    KernelProfile ser = par;
    ser.parallelFraction = 0.0;
    double t_par = m.run(par).seconds;
    double t_ser = m.run(ser).seconds;
    EXPECT_NEAR(t_ser / t_par, 4.0, 0.01); // 4 cores
}

TEST(CpuModel, CallOverheadAdds)
{
    CpuModel m(hwmodel::haswell4770kParams());
    KernelProfile p = streamingProfile(1e6);
    double t0 = m.run(p).seconds;
    p.callOverheads = 1e-3;
    double t1 = m.run(p).seconds;
    EXPECT_NEAR(t1 - t0, 1e-3, 1e-9);
}

TEST(CpuModel, FlushCostScalesWithDirtyBytesUpToLlc)
{
    CpuModel m(hwmodel::haswell4770kParams());
    Cost small = m.flushCost(64_KiB);
    Cost large = m.flushCost(8_MiB);
    Cost huge = m.flushCost(1_GiB); // clamped at LLC capacity
    EXPECT_LT(small.seconds, large.seconds);
    EXPECT_DOUBLE_EQ(large.seconds, huge.seconds);
    EXPECT_GT(small.seconds, 0.0); // wbinvd is never free
}

TEST(CpuModel, IdleCostIsBackgroundOnly)
{
    CpuModel m(hwmodel::haswell4770kParams());
    Cost c = m.idleCost(1.0);
    EXPECT_DOUBLE_EQ(c.seconds, 1.0);
    // Idle watts should be near idleW plus DRAM background.
    EXPECT_GT(c.joules, 15.0);
    EXPECT_LT(c.joules, 25.0);
}

TEST(CpuModel, InvalidProfileIsFatal)
{
    CpuModel m(hwmodel::haswell4770kParams());
    KernelProfile p = streamingProfile(1e6);
    p.simdEff = 0.0;
    EXPECT_THROW(m.run(p), FatalError);
    p = streamingProfile(1e6);
    p.memEff = 1.5;
    EXPECT_THROW(m.run(p), FatalError);
}

TEST(CpuModel, MemBoundStallsReducePower)
{
    CpuModel m(hwmodel::haswell4770kParams());
    KernelProfile mem = streamingProfile(1e9);
    KernelProfile cmp;
    cmp.flops = 14e9; // ~same runtime as the 1 GB stream, compute-bound
    cmp.bytesRead = 1.0;
    Cost cm = m.run(mem);
    Cost cc = m.run(cmp);
    EXPECT_LT(cm.watts(), cc.watts() * 1.05);
}

} // namespace
} // namespace mealib::host
