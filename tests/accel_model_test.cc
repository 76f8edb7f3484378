// Tests for the accelerator analytical models: roofline behaviour,
// bandwidth sensitivity, design-space monotonicity, power/area tables.

#include <gtest/gtest.h>

#include "accel/config.hh"
#include "accel/model.hh"
#include "common/logging.hh"
#include "dram/params.hh"
#include "hwmodel/profile.hh"
#include "noc/mesh.hh"

namespace mealib::accel {
namespace {

OpCall
axpyCall(std::uint64_t n)
{
    OpCall c;
    c.kind = AccelKind::AXPY;
    c.n = n;
    return c;
}

OpCall
fftCall(std::uint64_t n, std::uint64_t batch = 1)
{
    OpCall c;
    c.kind = AccelKind::FFT;
    c.n = n;
    c.m = batch;
    c.complexData = true;
    return c;
}

AccelModel
makeModel(AccelKind kind, const dram::DramParams &d)
{
    return AccelModel(kind, defaultConfig(kind), d,
                      hwmodel::mealibMeshParams());
}

TEST(OpCall, FlopsAndTraffic)
{
    OpCall a = axpyCall(1000);
    EXPECT_DOUBLE_EQ(a.flops(), 2000.0);
    EXPECT_DOUBLE_EQ(a.trafficBytes(), 12000.0);

    OpCall f = fftCall(1024);
    EXPECT_DOUBLE_EQ(f.flops(), 5.0 * 1024 * 10);

    OpCall r;
    r.kind = AccelKind::RESHP;
    r.m = 100;
    r.n = 200;
    EXPECT_DOUBLE_EQ(r.flops(), 0.0);
    EXPECT_DOUBLE_EQ(r.trafficBytes(), 100.0 * 200 * 4 * 2);
}

TEST(AccelModel, StreamingOpIsMemoryBound)
{
    AccelModel m = makeModel(AccelKind::AXPY, hwmodel::hmcStackParams());
    AccelEstimate e = m.estimate(axpyCall(16 << 20));
    EXPECT_GT(e.memSeconds, e.computeSeconds);
    // Achieved bandwidth within [50%, 100%] of the 510 GB/s stack.
    EXPECT_GT(e.achievedBw, 0.5 * 510e9);
    EXPECT_LE(e.achievedBw, 512e9 * 1.01);
}

TEST(AccelModel, MoreBandwidthMoreSpeed)
{
    AccelEstimate hmc =
        makeModel(AccelKind::AXPY, hwmodel::hmcStackParams())
            .estimate(axpyCall(16 << 20));
    AccelEstimate ddr =
        makeModel(AccelKind::AXPY, hwmodel::ddr3Params(2))
            .estimate(axpyCall(16 << 20));
    // 510 GB/s vs 25.6 GB/s should be roughly an order of magnitude.
    EXPECT_GT(ddr.total.seconds / hmc.total.seconds, 8.0);
}

TEST(AccelModel, MsasSitsBetweenPsasAndMealib)
{
    OpCall c = axpyCall(16 << 20);
    auto seconds = [&](const dram::DramParams &d) {
        return makeModel(AccelKind::AXPY, d).estimate(c).total.seconds;
    };
    double t_psas = seconds(hwmodel::ddr3Params(2));
    double t_msas = seconds(hwmodel::ddr3Params(8));
    double t_mea = seconds(hwmodel::hmcStackParams());
    EXPECT_GT(t_psas, t_msas);
    EXPECT_GT(t_msas, t_mea);
}

TEST(AccelModel, SpmvSlowerPerByteThanAxpy)
{
    OpCall s;
    s.kind = AccelKind::SPMV;
    s.m = 1 << 18;
    s.n = 1 << 18;
    s.k = 1 << 21; // ~8 nnz per row
    AccelEstimate es =
        makeModel(AccelKind::SPMV, hwmodel::hmcStackParams()).estimate(s);
    AccelEstimate ea =
        makeModel(AccelKind::AXPY, hwmodel::hmcStackParams())
            .estimate(axpyCall(16 << 20));
    // The gather destroys row locality: effective bandwidth must be
    // well below the streaming case.
    EXPECT_LT(es.achievedBw, 0.6 * ea.achievedBw);
}

TEST(AccelModel, LoopAggregatesIterations)
{
    AccelModel m = makeModel(AccelKind::DOT, hwmodel::hmcStackParams());
    OpCall c;
    c.kind = AccelKind::DOT;
    c.n = 1024;
    LoopSpec loop;
    loop.dims = {64, 1, 1, 1};
    AccelEstimate one = m.estimate(c);
    AccelEstimate many = m.estimate(c, loop);
    EXPECT_NEAR(many.flops / one.flops, 64.0, 0.01);
    EXPECT_GT(many.total.seconds, one.total.seconds);
}

TEST(AccelModel, FftSmallFitsLocalMemorySinglePass)
{
    AccelModel m = makeModel(AccelKind::FFT, hwmodel::hmcStackParams());
    // 8 MiB of local memory (32 tiles x 256 KiB): a 256-point transform
    // needs one pass, a 16M-point transform needs two.
    AccelEstimate small = m.estimate(fftCall(1 << 18));
    AccelEstimate large = m.estimate(fftCall(1 << 24));
    double bytes_small = static_cast<double>((1 << 18)) * 8 * 2;
    double bytes_large = static_cast<double>((1 << 24)) * 8 * 4;
    EXPECT_NEAR(small.bytes, bytes_small, bytes_small * 0.01);
    EXPECT_NEAR(large.bytes, bytes_large, bytes_large * 0.01);
}

TEST(AccelModel, HigherFrequencyNeverSlower)
{
    dram::DramParams d = hwmodel::hmcStackParams();
    AccelConfig slow = defaultConfig(AccelKind::FFT);
    slow.freq = 0.8_GHz;
    AccelConfig fast = slow;
    fast.freq = 2.0_GHz;
    AccelModel ms(AccelKind::FFT, slow, d, hwmodel::mealibMeshParams());
    AccelModel mf(AccelKind::FFT, fast, d, hwmodel::mealibMeshParams());
    OpCall c = fftCall(1 << 20);
    EXPECT_LE(mf.estimate(c).total.seconds,
              ms.estimate(c).total.seconds * 1.0001);
}

TEST(AccelModel, HigherFrequencyMorePower)
{
    AccelConfig slow = defaultConfig(AccelKind::FFT);
    slow.freq = 0.8_GHz;
    AccelConfig fast = slow;
    fast.freq = 2.0_GHz;
    EXPECT_LT(logicPowerW(AccelKind::FFT, slow),
              logicPowerW(AccelKind::FFT, fast));
}

TEST(Config, Table5AreasAtDefaults)
{
    // Table 5 areas at the default configurations.
    EXPECT_NEAR(areaMm2(AccelKind::AXPY, defaultConfig(AccelKind::AXPY)),
                1.38, 0.01);
    EXPECT_NEAR(areaMm2(AccelKind::SPMV, defaultConfig(AccelKind::SPMV)),
                14.17, 0.01);
    EXPECT_NEAR(areaMm2(AccelKind::FFT, defaultConfig(AccelKind::FFT)),
                16.13, 0.01);
}

TEST(Config, TotalAreaMatchesTable5Budget)
{
    // Accelerators + NoC + TSVs = 41.77 mm^2, 61.43% of 68 mm^2.
    double total = 0.0;
    for (std::size_t k = 0; k < static_cast<std::size_t>(AccelKind::kCount);
         ++k) {
        auto kind = static_cast<AccelKind>(k);
        total += areaMm2(kind, defaultConfig(kind));
    }
    noc::Mesh mesh(hwmodel::mealibMeshParams());
    total += mesh.areaMm2() + kTsvAreaMm2;
    EXPECT_NEAR(total, 41.77, 0.5);
    EXPECT_NEAR(total / kLayerAreaMm2, 0.6143, 0.01);
}

TEST(AccelModel, PowerInTable5Band)
{
    // Logic + DRAM power for the default AXPY configuration should land
    // near the Table 5 value of 23.56 W.
    AccelModel m = makeModel(AccelKind::AXPY, hwmodel::hmcStackParams());
    AccelEstimate e = m.estimate(axpyCall(32 << 20));
    EXPECT_GT(e.powerW(), 18.0);
    EXPECT_LT(e.powerW(), 28.0);
}

TEST(AccelModel, ReshpReportsBandwidthNotFlops)
{
    AccelModel m = makeModel(AccelKind::RESHP, hwmodel::hmcStackParams());
    OpCall c;
    c.kind = AccelKind::RESHP;
    c.m = 4096;
    c.n = 4096;
    AccelEstimate e = m.estimate(c);
    EXPECT_DOUBLE_EQ(e.gflops(), 0.0);
    EXPECT_GT(e.gbps(), 10.0);
}

TEST(AccelModel, EmptyLoopIsFatal)
{
    AccelModel m = makeModel(AccelKind::AXPY, hwmodel::hmcStackParams());
    LoopSpec bad;
    bad.dims = {0, 1, 1, 1};
    EXPECT_THROW(m.estimate(axpyCall(1024), bad), FatalError);
}

} // namespace
} // namespace mealib::accel
