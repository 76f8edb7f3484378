/**
 * @file
 * Tests for the unified hardware-model registry (src/hwmodel): profile
 * lookup and aliases, active-machine selection, equality of each
 * profile field with its preset builder, the dispatch-vs-host drift pin
 * (both must price a kernel from the same profile, identically), and
 * the golden modeled time/energy pins that freeze the default profile's
 * Table 2/3/5 behaviour across refactors.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "accel/config.hh"
#include "accel/model.hh"
#include "common/logging.hh"
#include "dispatch/models.hh"
#include "dispatch/opdesc.hh"
#include "dram/params.hh"
#include "host/cpu.hh"
#include "hwmodel/profile.hh"
#include "mealib/platform.hh"
#include "noc/mesh.hh"

namespace mealib {
namespace {

using accel::AccelKind;

TEST(Registry, CanonicalNamesAndAliases)
{
    EXPECT_EQ(hwmodel::profile("haswell4770k").name, "haswell4770k");
    EXPECT_EQ(hwmodel::profile("xeonphi5110p").name, "xeonphi5110p");
    EXPECT_EQ(hwmodel::profile("haswell").name, "haswell4770k");
    EXPECT_EQ(hwmodel::profile("phi").name, "xeonphi5110p");
    EXPECT_EQ(hwmodel::profile("xeonphi").name, "xeonphi5110p");
    EXPECT_THROW(hwmodel::profile("pentium4"), FatalError);
    EXPECT_EQ(hwmodel::profileNames().size(), 2u);
}

TEST(Registry, SameNameReturnsSameObject)
{
    // Profiles are singletons: RooflineCostModel holds a reference.
    EXPECT_EQ(&hwmodel::profile("haswell"),
              &hwmodel::profile("haswell4770k"));
    EXPECT_NE(&hwmodel::profile("haswell"), &hwmodel::profile("phi"));
}

TEST(Registry, ActiveMachineDefaultsToHaswell)
{
    EXPECT_EQ(hwmodel::activeProfile().name, "haswell4770k");
    EXPECT_EQ(hwmodel::activeMachineName(), "haswell4770k");
}

TEST(Registry, SetActiveMachineSwitchesAndRestores)
{
    EXPECT_TRUE(hwmodel::setActiveMachine("phi").ok());
    EXPECT_EQ(hwmodel::activeProfile().name, "xeonphi5110p");
    EXPECT_TRUE(hwmodel::setActiveMachine("haswell4770k").ok());
    EXPECT_EQ(hwmodel::activeProfile().name, "haswell4770k");
    const Status bad = hwmodel::setActiveMachine("vax11");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(hwmodel::activeProfile().name, "haswell4770k");
}

TEST(Registry, SetActiveMachineRefusesWhilePinned)
{
    // A live session pins the active profile; switching under it would
    // silently reprice in-flight work.
    hwmodel::pinActiveMachine();
    const Status st = hwmodel::setActiveMachine("phi");
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(hwmodel::activeProfile().name, "haswell4770k");
    hwmodel::unpinActiveMachine();
    EXPECT_TRUE(hwmodel::setActiveMachine("phi").ok());
    EXPECT_TRUE(hwmodel::setActiveMachine("haswell4770k").ok());
}

TEST(Registry, PresetBuildersMatchProfileFields)
{
    // The preset builders are the one spelling of the Table 3 / CACTI
    // constants; a profile field that differs from its builder in any
    // member would be a constant re-materialized somewhere else.
    const hwmodel::MachineProfile &hw = hwmodel::profile("haswell4770k");
    const hwmodel::MachineProfile &phi = hwmodel::profile("xeonphi5110p");
    EXPECT_TRUE(hw.cpu == hwmodel::haswell4770kParams());
    EXPECT_TRUE(phi.cpu == hwmodel::xeonPhi5110pParams());
    for (const hwmodel::MachineProfile *m : {&hw, &phi}) {
        EXPECT_TRUE(m->stackDram == hwmodel::hmcStackParams());
        EXPECT_TRUE(m->mesh == hwmodel::mealibMeshParams());
    }
    // Equality is member-wise: one changed constant breaks it.
    dram::DramParams moved = hwmodel::hmcStackParams();
    moved.energy.tsvJPerByte *= 2.0;
    EXPECT_FALSE(moved == hw.stackDram);
}

TEST(Registry, ProfilesDifferWhereTheyShould)
{
    const hwmodel::MachineProfile &hw = hwmodel::profile("haswell");
    const hwmodel::MachineProfile &phi = hwmodel::profile("phi");
    EXPECT_NE(hw.cpu.cores, phi.cpu.cores);
    EXPECT_NE(hw.cpu.freq, phi.cpu.freq);
    EXPECT_NE(hw.callOverheadSeconds, phi.callOverheadSeconds);
    // Both machines see the same 3D stack: it is the accelerator's
    // memory, not the host's.
    EXPECT_EQ(hw.stackDram.name, phi.stackDram.name);
    for (int k = 0; k < static_cast<int>(hwmodel::kNumAccelKinds); ++k) {
        AccelKind kind = static_cast<AccelKind>(k);
        EXPECT_GT(hw.opEfficiency(kind).memEff, 0.0);
        EXPECT_GT(phi.opEfficiency(kind).memEff, 0.0);
    }
}

// --- satellite 1: dispatch and host models must price identically ----

TEST(DriftPin, DispatchAndHostModelsPriceTheSameProfile)
{
    // One KernelProfile, two consumers: host::CpuModel directly, and
    // RooflineCostModel::hostSeconds through the dispatch seam. Both
    // must derive from the same registry CpuParams and agree exactly —
    // this pins the removal of the duplicated Haswell model that used
    // to live in dispatch/models.cc.
    const hwmodel::MachineProfile &m = hwmodel::profile("haswell4770k");
    host::CpuModel cpu(m.cpu);
    dispatch::RooflineCostModel roofline(m);

    const AccelKind kinds[] = {
        AccelKind::AXPY, AccelKind::DOT,   AccelKind::GEMV,
        AccelKind::SPMV, AccelKind::RESMP, AccelKind::FFT,
        AccelKind::RESHP,
    };
    for (AccelKind k : kinds) {
        eval::Workload w = eval::table2Workload(k, 1.0 / 64.0);
        host::KernelProfile p =
            dispatch::hostKernelProfile(m, w.call, w.loop);
        dispatch::OpDesc desc = dispatch::opDescFromCall(w.call, w.loop);
        EXPECT_EQ(roofline.hostSeconds(desc), cpu.run(p).seconds)
            << "kind " << accel::name(k);
    }
}

TEST(DriftPin, DefaultRooflineUsesActiveProfile)
{
    dispatch::RooflineCostModel def;
    EXPECT_EQ(&def.machine(), &hwmodel::activeProfile());
}

TEST(DriftPin, PhiProfileChangesHostPricing)
{
    eval::Workload w = eval::table2Workload(AccelKind::DOT, 1.0 / 64.0);
    dispatch::OpDesc desc = dispatch::opDescFromCall(w.call, w.loop);
    dispatch::RooflineCostModel hw(hwmodel::profile("haswell"));
    dispatch::RooflineCostModel phi(hwmodel::profile("phi"));
    EXPECT_NE(hw.hostSeconds(desc), phi.hostSeconds(desc));
    // The accelerator execution itself runs on the same 3D stack, but
    // accelSeconds adds the host-side invocation overhead (cache flush
    // of the input footprint), which is machine-dependent too.
    EXPECT_NE(hw.accelSeconds(desc), phi.accelSeconds(desc));

    const hwmodel::MachineProfile &h = hwmodel::profile("haswell");
    const hwmodel::MachineProfile &p = hwmodel::profile("phi");
    accel::AccelModel mh(AccelKind::DOT,
                         accel::defaultConfig(AccelKind::DOT),
                         h.stackDram, h.mesh);
    accel::AccelModel mp(AccelKind::DOT,
                         accel::defaultConfig(AccelKind::DOT),
                         p.stackDram, p.mesh);
    accel::AccelEstimate eh = mh.estimate(w.call, w.loop);
    accel::AccelEstimate ep = mp.estimate(w.call, w.loop);
    EXPECT_EQ(eh.total.seconds, ep.total.seconds);
    EXPECT_EQ(eh.total.joules, ep.total.joules);
}

// --- golden pins: default-profile modeled values are frozen ----------

struct GoldenOp
{
    int platform;
    int kind;
    double seconds;
    double joules;
};

// Captured at scale 1/16 from the pre-registry tree (%.17g); the
// refactor moved every constant into src/hwmodel without changing any
// modeled number.
const GoldenOp kGolden[] = {
    {0, 0, 0.017481266666666669, 0.60919662438715372},
    {0, 1, 0.0104907603125, 0.3447604586016243},
    {0, 2, 0.0045947600000000007, 0.16011937757524872},
    {0, 3, 0.00068566698660714291, 0.022471802627030128},
    {0, 4, 0.018380046095238099, 0.84416161831117131},
    {0, 5, 0.020976520000000002, 0.68935805050978471},
    {0, 6, 0.039326599999999996, 1.2854638081900307},
    {1, 0, 0.0077260072727272731, 0.86076456737897045},
    {1, 1, 0.0056924054999999999, 0.5934229432720356},
    {1, 2, 0.0037718080000000002, 0.39278049659517161},
    {1, 3, 0.00096630343750000005, 0.096837721168074695},
    {1, 4, 0.092141671111111184, 9.757173351155318},
    {1, 5, 0.013005550769230769, 1.3076287407840321},
    {1, 6, 1.3982013333333334, 139.92202621046428},
    {2, 0, 0.0082123999999999999, 0.17176696100159999},
    {2, 1, 0.0054790249999999993, 0.11456875062079999},
    {2, 2, 0.002735665, 0.057757327529600007},
    {2, 3, 0.00090216359632434525, 0.013198372268470026},
    {2, 4, 0.0088420800000000004, 0.075305749920000012},
    {2, 5, 0.0054785199999999997, 0.088180304507199991},
    {2, 6, 0.0061554769277787401, 0.12381983794817862},
    {3, 0, 0.00204536, 0.057628788201599994},
    {3, 1, 0.0013676650000000001, 0.038506059420800001},
    {3, 2, 0.00068034500000000006, 0.019291696129599998},
    {3, 3, 0.00016357917214478818, 0.0035311110480718273},
    {3, 4, 0.0022118400000000001, 0.034903941120000004},
    {3, 5, 0.0013671600000000001, 0.031849765307199997},
    {3, 6, 0.0014388900869369634, 0.039410831623069895},
    {4, 0, 0.00040393600000000003, 0.0099714725184000003},
    {4, 1, 0.00030758500000000003, 0.0074040934271999998},
    {4, 2, 0.00013539300000000001, 0.003356691654400001},
    {4, 3, 6.5959257408946653e-05, 0.0010211083591208834},
    {4, 4, 0.001048576125, 0.010061349845875001},
    {4, 5, 0.00030037339583333333, 0.0056608837734041665},
    {4, 6, 0.00041360059987791137, 0.0093112700616770211},
};

TEST(GoldenPins, EvaluateOpMatchesPreRefactorValues)
{
    for (const GoldenOp &g : kGolden) {
        eval::Workload w = eval::table2Workload(
            static_cast<AccelKind>(g.kind), 1.0 / 16.0);
        eval::OpResult r = eval::evaluateOp(
            static_cast<eval::Platform>(g.platform), w);
        EXPECT_DOUBLE_EQ(r.cost.seconds, g.seconds)
            << "platform " << g.platform << " kind " << g.kind;
        EXPECT_DOUBLE_EQ(r.cost.joules, g.joules)
            << "platform " << g.platform << " kind " << g.kind;
    }
}

TEST(GoldenPins, Table5PowerAndArea)
{
    // Modeled average power of each accelerator at scale 1/16 (golden),
    // synthesis area exactly as Table 5, and the paper's power column
    // within a 25% band (the RESMP pipeline model sits ~17% under).
    const double golden_power[] = {
        24.685773286857323, 24.071698643301847, 24.792209747919028,
        15.48089531678659,  9.5952497925460598, 18.846155658023697,
        22.512709276595746,
    };
    const double paper_power[] = {23.56, 23.49, 23.75, 15.44,
                                  8.19,  18.89, 22.70};
    const double paper_area[] = {1.38, 1.81, 2.45, 14.17,
                                 2.64, 16.13, 0.0};
    for (int k = 0; k < 7; ++k) {
        AccelKind kind = static_cast<AccelKind>(k);
        accel::AccelConfig cfg = accel::defaultConfig(kind);
        accel::AccelModel model(kind, cfg, hwmodel::hmcStackParams(),
                                hwmodel::mealibMeshParams());
        eval::Workload w = eval::table2Workload(kind, 1.0 / 16.0);
        accel::AccelEstimate e = model.estimate(w.call, w.loop);
        EXPECT_NEAR(e.powerW(), golden_power[k],
                    1e-9 * golden_power[k])
            << accel::name(kind);
        EXPECT_NEAR(e.powerW(), paper_power[k], 0.25 * paper_power[k])
            << accel::name(kind);
        EXPECT_NEAR(accel::areaMm2(kind, cfg), paper_area[k], 1e-6)
            << accel::name(kind);
    }
}

TEST(GoldenPins, ConstantsLiveInTheRegistry)
{
    // The layer-level constants the benches print come from
    // hwmodel/constants.hh — pin the values the paper quotes.
    EXPECT_DOUBLE_EQ(hwmodel::kTsvAreaMm2, 1.75);
    EXPECT_DOUBLE_EQ(hwmodel::kAccelLayerAreaMm2, 68.0);
    EXPECT_DOUBLE_EQ(hwmodel::kLogicLayerMuxPowerW, 0.25);
    EXPECT_DOUBLE_EQ(hwmodel::kLogicLayerMuxAreaMm2, 0.45);
    EXPECT_DOUBLE_EQ(hwmodel::kHandshakeSeconds, 20.0e-6);
    EXPECT_DOUBLE_EQ(accel::kTsvAreaMm2, hwmodel::kTsvAreaMm2);
    EXPECT_DOUBLE_EQ(accel::kLayerAreaMm2,
                     hwmodel::kAccelLayerAreaMm2);
    EXPECT_DOUBLE_EQ(dispatch::RooflineCostModel::kHandshakeSeconds,
                     hwmodel::kHandshakeSeconds);
}

} // namespace
} // namespace mealib
