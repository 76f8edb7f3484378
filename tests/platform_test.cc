// Tests for the platform-comparison layer: Table 2 workloads, Fig. 9
// performance ordering and Fig. 10 energy-efficiency ordering.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "hwmodel/profile.hh"
#include "mealib/platform.hh"
#include "runtime/runtime.hh"

namespace mealib::eval {
namespace {

using accel::AccelKind;

constexpr AccelKind kAllKinds[] = {
    AccelKind::AXPY, AccelKind::DOT,   AccelKind::GEMV, AccelKind::SPMV,
    AccelKind::RESMP, AccelKind::FFT, AccelKind::RESHP,
};

// The paper's Table 2 sizes are ~1 GiB; the models are analytic in
// size, so a 1/16 scale keeps ratios stable and tests fast.
constexpr double kScale = 1.0 / 16.0;

double
speedup(Platform p, AccelKind k)
{
    Workload w = table2Workload(k, kScale);
    OpResult base = evaluateOp(Platform::HaswellMkl, w);
    OpResult r = evaluateOp(p, w);
    return r.perf() / base.perf();
}

double
eeGain(Platform p, AccelKind k)
{
    Workload w = table2Workload(k, kScale);
    OpResult base = evaluateOp(Platform::HaswellMkl, w);
    OpResult r = evaluateOp(p, w);
    return r.perfPerWatt() / base.perfPerWatt();
}

TEST(Workloads, Table2SizesAtFullScale)
{
    EXPECT_EQ(table2Workload(AccelKind::AXPY, 1.0).call.n,
              256u << 20); // 256M elements
    Workload fft = table2Workload(AccelKind::FFT, 1.0);
    EXPECT_EQ(fft.call.n, 8192u);
    EXPECT_EQ(fft.call.k, 8192u);
    Workload spmv = table2Workload(AccelKind::SPMV, 1.0);
    EXPECT_EQ(spmv.call.m, 1u << 20);
    EXPECT_NEAR(static_cast<double>(spmv.call.k), 13.8e6, 0.3e6);
    Workload rh = table2Workload(AccelKind::RESHP, 1.0);
    EXPECT_EQ(rh.call.m, 16384u);
}

TEST(Workloads, BadScaleIsFatal)
{
    EXPECT_THROW(table2Workload(AccelKind::AXPY, 0.0), FatalError);
    EXPECT_THROW(table2Workload(AccelKind::AXPY, 2.0), FatalError);
}

TEST(Fig9, MealibBeatsHaswellOnEveryOp)
{
    for (AccelKind k : kAllKinds)
        EXPECT_GT(speedup(Platform::MeaLib, k), 5.0)
            << accel::name(k);
}

TEST(Fig9, PlatformOrderingHoldsPerOp)
{
    // Fig. 9: MEALib > MSAS > PSAS on every operation.
    for (AccelKind k : kAllKinds) {
        double psas = speedup(Platform::Psas, k);
        double msas = speedup(Platform::Msas, k);
        double mea = speedup(Platform::MeaLib, k);
        EXPECT_GT(msas, psas) << accel::name(k);
        EXPECT_GT(mea, msas) << accel::name(k);
    }
}

TEST(Fig9, AverageGainsMatchPaperBands)
{
    // Paper Sec. 5.1: MEALib 38x, PSAS 2.51x, MSAS 10.32x on average.
    double mea = 0, psas = 0, msas = 0;
    for (AccelKind k : kAllKinds) {
        mea += speedup(Platform::MeaLib, k);
        psas += speedup(Platform::Psas, k);
        msas += speedup(Platform::Msas, k);
    }
    mea /= 7;
    psas /= 7;
    msas /= 7;
    EXPECT_GT(mea, 25.0);
    EXPECT_LT(mea, 55.0);
    EXPECT_GT(psas, 1.5);
    EXPECT_LT(psas, 4.5);
    EXPECT_GT(msas, 6.0);
    EXPECT_LT(msas, 16.0);
}

TEST(Fig9, ExtremesMatchPaper)
{
    // Fig. 9: RESHP shows the largest MEALib gain (88x), SPMV the
    // smallest (11x).
    double worst = 1e9, best = 0;
    AccelKind worst_k{}, best_k{};
    for (AccelKind k : kAllKinds) {
        double s = speedup(Platform::MeaLib, k);
        if (s < worst) {
            worst = s;
            worst_k = k;
        }
        if (s > best) {
            best = s;
            best_k = k;
        }
    }
    EXPECT_EQ(best_k, AccelKind::RESHP);
    EXPECT_EQ(worst_k, AccelKind::SPMV);
    EXPECT_GT(best, 60.0);
    EXPECT_LT(worst, 16.0);
}

TEST(Fig9, XeonPhiBarelyBeatsHaswell)
{
    // Sec. 5.1: Phi's best is AXPY at 2.23x; RESHP collapses to 2.4%.
    double axpy = speedup(Platform::XeonPhiMkl, AccelKind::AXPY);
    EXPECT_GT(axpy, 1.5);
    EXPECT_LT(axpy, 3.0);
    double reshp = speedup(Platform::XeonPhiMkl, AccelKind::RESHP);
    EXPECT_LT(reshp, 0.1);
    for (AccelKind k : kAllKinds)
        EXPECT_LT(speedup(Platform::XeonPhiMkl, k), 3.0)
            << accel::name(k);
}

TEST(Fig10, EnergyGainsExceedPerformanceGains)
{
    // Sec. 5.1: MEALib's EE gains (75x avg) are larger than its
    // performance gains (38x avg) because it draws far less power.
    double perf = 0, ee = 0;
    for (AccelKind k : kAllKinds) {
        perf += speedup(Platform::MeaLib, k);
        ee += eeGain(Platform::MeaLib, k);
    }
    EXPECT_GT(ee, perf);
    EXPECT_GT(ee / 7, 45.0);
    EXPECT_LT(ee / 7, 110.0);
}

TEST(Fig10, XeonPhiLessEfficientThanHaswell)
{
    for (AccelKind k : kAllKinds)
        EXPECT_LT(eeGain(Platform::XeonPhiMkl, k), 1.0)
            << accel::name(k);
}

TEST(Fig10, MealibPowerFarBelowHaswell)
{
    // Sec. 5.1: FFT draws 19 W on MEALib vs 48 W on Haswell and 130 W
    // on the Phi.
    Workload w = table2Workload(AccelKind::FFT, kScale);
    double mea_w = evaluateOp(Platform::MeaLib, w).cost.watts();
    double hw_w = evaluateOp(Platform::HaswellMkl, w).cost.watts();
    double phi_w = evaluateOp(Platform::XeonPhiMkl, w).cost.watts();
    EXPECT_GT(mea_w, 12.0);
    EXPECT_LT(mea_w, 26.0);
    EXPECT_GT(hw_w, 30.0);
    EXPECT_LT(hw_w, 60.0);
    EXPECT_GT(phi_w, 95.0);
    EXPECT_LT(phi_w, 140.0);
}

TEST(Eval, ScaleInvarianceOfRatios)
{
    // The MEALib/Haswell ratio should be stable across problem scales
    // (this is what justifies the scaled-down default bench sizes).
    for (AccelKind k : {AccelKind::AXPY, AccelKind::FFT}) {
        Workload w1 = table2Workload(k, 1.0 / 32.0);
        Workload w2 = table2Workload(k, 1.0 / 8.0);
        double s1 = evaluateOp(Platform::MeaLib, w1).perf() /
                    evaluateOp(Platform::HaswellMkl, w1).perf();
        double s2 = evaluateOp(Platform::MeaLib, w2).perf() /
                    evaluateOp(Platform::HaswellMkl, w2).perf();
        EXPECT_NEAR(s1 / s2, 1.0, 0.25) << accel::name(k);
    }
}

TEST(Eval, HostProfileRejectsAccelPlatforms)
{
    Workload w = table2Workload(AccelKind::AXPY, kScale);
    EXPECT_THROW(hostProfile(Platform::MeaLib, w.call, w.loop),
                 FatalError);
}

TEST(MachineSwitch, RuntimeDefaultsFollowActiveProfile)
{
    runtime::RuntimeConfig hw_cfg;
    EXPECT_EQ(hw_cfg.hostCpu.name,
              hwmodel::profile("haswell4770k").cpu.name);
    hwmodel::setActiveMachine("phi").orThrow();
    runtime::RuntimeConfig phi_cfg;
    hwmodel::setActiveMachine("haswell4770k").orThrow();
    EXPECT_EQ(phi_cfg.hostCpu.name,
              hwmodel::profile("xeonphi5110p").cpu.name);
    EXPECT_NE(hw_cfg.hostCpu.idleW, phi_cfg.hostCpu.idleW);
    // The 3D stack and mesh are machine-independent.
    EXPECT_EQ(hw_cfg.dram.name, phi_cfg.dram.name);
}

TEST(MachineSwitch, PhiChangesModeledCostNotFunctionalOutput)
{
    // The tentpole invariant of MEALIB_MACHINE / --machine: selecting
    // the Phi profile re-prices the modeled time/energy, but the
    // functional pipeline's numerical output is bit-for-bit identical.
    auto run = [](std::vector<float> *out, Cost *modeled) {
        runtime::RuntimeConfig cfg;
        cfg.backingBytes = 64_MiB;
        runtime::MealibRuntime rt(cfg);
        const std::int64_t n = 4096;
        auto *x = static_cast<float *>(rt.memAlloc(n * 4));
        auto *y = static_cast<float *>(rt.memAlloc(n * 4));
        for (std::int64_t i = 0; i < n; ++i) {
            x[i] = 0.25f * static_cast<float>(i % 1000) - 100.0f;
            y[i] = 1.0f / (1.0f + static_cast<float>(i % 37));
        }
        accel::OpCall c;
        c.kind = AccelKind::AXPY;
        c.n = n;
        c.alpha = 1.5f;
        c.beta = 1.0f;
        c.in0.base = rt.physOf(x);
        c.out.base = rt.physOf(y);
        accel::DescriptorProgram prog;
        prog.addComp(c);
        prog.addPassEnd();
        runtime::AccPlanHandle h = rt.accPlan(prog);
        rt.accExecute(h);
        rt.accDestroy(h);
        // A host-side stage, priced by the active machine's CPU model.
        host::KernelProfile prof;
        prof.name = "stage";
        prof.flops = 1e9;
        prof.bytesRead = 64.0 * 1024 * 1024;
        prof.bytesWritten = 16.0 * 1024 * 1024;
        rt.runOnHost(prof);
        out->assign(y, y + n);
        *modeled = rt.accounting().total();
    };

    std::vector<float> hw_out, phi_out;
    Cost hw_cost, phi_cost;
    run(&hw_out, &hw_cost);
    hwmodel::setActiveMachine("phi").orThrow();
    run(&phi_out, &phi_cost);
    hwmodel::setActiveMachine("haswell4770k").orThrow();

    ASSERT_EQ(hw_out.size(), phi_out.size());
    for (std::size_t i = 0; i < hw_out.size(); ++i)
        ASSERT_EQ(std::memcmp(&hw_out[i], &phi_out[i], 4), 0)
            << "functional output diverged at " << i;
    EXPECT_NE(hw_cost.seconds, phi_cost.seconds);
    EXPECT_NE(hw_cost.joules, phi_cost.joules);
}

} // namespace
} // namespace mealib::eval
