// Multi-tenant session contexts (docs/SESSIONS.md): thread binding,
// machine pinning, per-session ledger attribution, and concurrency
// torture — N threads in one session and N sessions side by side must
// reproduce the solo numbers bit for bit.

#include <cmath>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/cg.hh"
#include "apps/sar.hh"
#include "apps/stap.hh"
#include "common/logging.hh"
#include "dispatch/dispatcher.hh"
#include "hwmodel/profile.hh"
#include "minimkl/compat.hh"
#include "runtime/runtime.hh"
#include "session/session.hh"

namespace mealib {
namespace {

runtime::RuntimeConfig
testConfig()
{
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 256_MiB;
    cfg.numStacks = 2;
    return cfg;
}

// --- binding & routing -------------------------------------------------

TEST(SessionBinding, RoutesDispatchAndRestores)
{
    runtime::MealibRuntime rt(testConfig());
    Session s(rt);
    host::KernelProfile work;
    work.flops = 1e6;
    EXPECT_EQ(&dispatch::currentDispatcher(),
              &dispatch::Dispatcher::global());
    {
        SessionBinding bound = s.bind();
        EXPECT_EQ(&dispatch::currentDispatcher(), &s.dispatcher());
        rt.runOnHost(work); // lands in the bound session's ledger
    }
    const Cost bound = s.ledger().track("host");
    EXPECT_GT(bound.seconds, 0.0);
    rt.runOnHost(work); // unbound: the aggregate ledger only
    EXPECT_EQ(s.ledger().track("host").seconds, bound.seconds);
    EXPECT_EQ(rt.accounting().host.seconds, 2.0 * bound.seconds);
    EXPECT_EQ(&dispatch::currentDispatcher(),
              &dispatch::Dispatcher::global());
}

TEST(SessionBinding, BindingsNest)
{
    runtime::MealibRuntime rt(testConfig());
    Session outer(rt);
    Session inner(rt);
    SessionBinding b1 = outer.bind();
    {
        SessionBinding b2 = inner.bind();
        EXPECT_EQ(&dispatch::currentDispatcher(), &inner.dispatcher());
    }
    EXPECT_EQ(&dispatch::currentDispatcher(), &outer.dispatcher());
}

TEST(SessionBinding, CompatCallsUseTheBoundDispatcher)
{
    runtime::MealibRuntime rt(testConfig());
    Session s(rt);
    std::vector<float> x(1024, 1.0f), y(1024, 2.0f);
    {
        SessionBinding bound = s.bind();
        cblas_saxpy(1024, 0.5f, x.data(), 1, y.data(), 1);
    }
    // The MKL-signature call above went through the session's private
    // dispatcher, not the process-global one.
    EXPECT_EQ(s.dispatcher().snapshot().totalCalls(), 1u);
    EXPECT_FLOAT_EQ(y[0], 2.5f);
}

// --- machine pinning ---------------------------------------------------

TEST(SessionMachine, SetActiveMachineRefusesWhileLive)
{
    const std::string before = hwmodel::activeMachineName();
    runtime::MealibRuntime rt(testConfig());
    {
        Session s(rt);
        Status st = hwmodel::setActiveMachine("xeonphi5110p");
        EXPECT_FALSE(st.ok());
        EXPECT_EQ(st.code(), ErrorCode::InvalidArgument);
        EXPECT_EQ(&s.machine(), &hwmodel::activeProfile());
    }
    // The last session is gone: switching works again.
    EXPECT_TRUE(hwmodel::setActiveMachine("xeonphi5110p").ok());
    EXPECT_TRUE(hwmodel::setActiveMachine(before).ok());
}

// --- dispatcher global() -----------------------------------------------

TEST(SessionDispatch, GlobalIsStableAcrossSessions)
{
    dispatch::Dispatcher *before = &dispatch::Dispatcher::global();
    runtime::MealibRuntime rt(testConfig());
    Session s(rt);
    SessionBinding bound = s.bind();
    EXPECT_EQ(&dispatch::Dispatcher::global(), before);
}

TEST(SessionDispatch, CostModelPricesTheBackendFusionWindow)
{
    // With fusion window 4 the backend pays one flush + handshake per
    // four calls, so a 4096-float saxpy on arena buffers is cheaper on
    // the accelerators; priced unamortized it would stay on the host.
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 16_MiB;
    runtime::MealibRuntime rt(cfg);
    SessionOptions opts;
    opts.policy = "crossover";
    opts.fusionWindow = 4;
    Session s(rt, opts);
    constexpr int kN = 4096;
    auto *x = static_cast<float *>(rt.memAlloc(kN * 4));
    auto *y = static_cast<float *>(rt.memAlloc(kN * 4));
    for (int i = 0; i < kN; ++i) {
        x[i] = static_cast<float>(i % 7);
        y[i] = 1.0f;
    }
    {
        SessionBinding bound = s.bind();
        cblas_saxpy(kN, 0.5f, x, 1, y, 1);
    }
    s.sync();
    EXPECT_EQ(s.dispatcher().snapshot().totalAccelDecisions(), 1u);
    for (int i = 0; i < kN; ++i)
        ASSERT_EQ(y[i], 0.5f * static_cast<float>(i % 7) + 1.0f);
}

TEST(SessionDispatch, RemovedReuseVariablesChangeNothing)
{
    // Residency and the fusion window are set only through RuntimeConfig,
    // SessionOptions and the RuntimeBackend argument; the environment
    // variables that once seeded them reach no constructor.
    const char *const vars[][2] = {{"MEALIB_RESIDENCY", "1"},
                                   {"MEALIB_FUSION_WINDOW", "4"}};
    std::vector<std::pair<const char *, std::string>> saved;
    for (const auto &v : vars) {
        if (const char *old = std::getenv(v[0]))
            saved.emplace_back(v[0], old);
        setenv(v[0], v[1], 1);
    }
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 16_MiB;
    const bool residency = cfg.residency.enabled;
    runtime::MealibRuntime rt(cfg);
    const unsigned backendWindow = dispatch::RuntimeBackend(rt).fusionWindow();
    constexpr int kN = 1024;
    auto *x = static_cast<float *>(rt.memAlloc(kN * 4));
    auto *y = static_cast<float *>(rt.memAlloc(kN * 4));
    for (int i = 0; i < kN; ++i) {
        x[i] = static_cast<float>(i % 5);
        y[i] = 1.0f;
    }
    {
        SessionOptions opts;
        opts.policy = "accel";
        Session s(rt, opts);
        SessionBinding bound = s.bind();
        for (int call = 0; call < 4; ++call)
            cblas_saxpy(kN, 0.5f, x, 1, y, 1);
    }
    for (const auto &v : vars)
        unsetenv(v[0]);
    for (const auto &[var, value] : saved)
        setenv(var, value.c_str(), 1);

    EXPECT_FALSE(residency);
    EXPECT_EQ(backendWindow, 1u);
    // A session with the default window submits one program per call.
    EXPECT_EQ(rt.queue(0).submitted(), 4u);
    EXPECT_EQ(rt.accounting().fusedPrograms, 0u);
    EXPECT_EQ(rt.accounting().flushBytesElided, 0u);
}

// --- ledger attribution ------------------------------------------------

TEST(SessionLedger, SingleSessionMirrorsAccountingExactly)
{
    runtime::MealibRuntime rt(testConfig());
    Session s(rt);
    {
        SessionBinding bound = s.bind();
        apps::CgOptions opts;
        opts.exclusive = false;
        mkl::CsrMatrix a = apps::cgTestMatrix(400, 9);
        std::vector<float> b(400, 1.0f);
        apps::solveCgMealib(a, b, rt, opts);
    }
    const Cost led = s.ledger().total();
    const Cost agg = rt.accounting().total();
    // One session did everything: its ledger IS the aggregate.
    EXPECT_EQ(led.seconds, agg.seconds);
    EXPECT_EQ(led.joules, agg.joules);
    EXPECT_GT(led.seconds, 0.0);
}

TEST(SessionLedger, NSessionLedgersSumToAggregate)
{
    constexpr unsigned kClients = 4;
    runtime::RuntimeConfig cfg = testConfig();
    cfg.residency.enabled = true; // moves the elision counters
    runtime::MealibRuntime rt(cfg);
    std::vector<std::unique_ptr<Session>> sessions;
    for (unsigned i = 0; i < kClients; ++i)
        sessions.push_back(std::make_unique<Session>(rt));
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kClients; ++i)
        threads.emplace_back([&, i] {
            SessionBinding bound = sessions[i]->bind();
            apps::CgOptions opts;
            opts.exclusive = false;
            mkl::CsrMatrix a = apps::cgTestMatrix(300, i + 1);
            std::vector<float> b(300, 1.0f);
            apps::solveCgMealib(a, b, rt, opts);
        });
    for (auto &t : threads)
        t.join();
    rt.waitAll();
    Cost sum;
    for (auto &s : sessions)
        sum += s->ledger().total();
    const Cost agg = rt.accounting().total();
    EXPECT_GT(agg.seconds, 0.0);
    EXPECT_NEAR(sum.seconds, agg.seconds,
                1e-9 * std::abs(agg.seconds));
    EXPECT_NEAR(sum.joules, agg.joules, 1e-9 * std::abs(agg.joules));

    // Counters are integers: the sessions' counters partition the
    // aggregate's exactly.
    std::map<std::string, std::uint64_t> counterSum;
    for (auto &s : sessions)
        for (const auto &[name, n] : s->ledger().counters())
            counterSum[name] += n;
    EXPECT_FALSE(rt.ledger().counters().empty());
    EXPECT_EQ(counterSum, rt.ledger().counters());
}

// --- concurrency torture -----------------------------------------------

std::vector<std::complex<float>>
soloStap()
{
    runtime::MealibRuntime rt(testConfig());
    Session s(rt);
    SessionBinding bound = s.bind();
    return apps::runStapMealib(apps::StapParams::smallSet(), rt,
                               /*exclusive=*/false)
        .prods;
}

TEST(SessionTorture, NSessionsMatchSoloBitForBit)
{
    constexpr unsigned kClients = 4;
    const std::vector<std::complex<float>> solo = soloStap();
    runtime::MealibRuntime rt(testConfig());
    std::vector<std::unique_ptr<Session>> sessions;
    for (unsigned i = 0; i < kClients; ++i)
        sessions.push_back(std::make_unique<Session>(rt));
    std::vector<std::vector<std::complex<float>>> out(kClients);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kClients; ++i)
        threads.emplace_back([&, i] {
            SessionBinding bound = sessions[i]->bind();
            out[i] = apps::runStapMealib(apps::StapParams::smallSet(),
                                         rt, /*exclusive=*/false)
                         .prods;
        });
    for (auto &t : threads)
        t.join();
    for (unsigned i = 0; i < kClients; ++i) {
        ASSERT_EQ(out[i].size(), solo.size()) << "client " << i;
        EXPECT_EQ(std::memcmp(out[i].data(), solo.data(),
                              solo.size() * sizeof(solo[0])),
                  0)
            << "client " << i;
    }
}

TEST(SessionTorture, NThreadsOneSessionMatchSolo)
{
    constexpr unsigned kThreads = 4;
    const std::vector<std::complex<float>> solo = soloStap();
    runtime::MealibRuntime rt(testConfig());
    Session s(rt);
    std::vector<std::vector<std::complex<float>>> out(kThreads);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kThreads; ++i)
        threads.emplace_back([&, i] {
            // One session bound on several threads at once: its
            // dispatcher, window and ledger are internally locked.
            SessionBinding bound = s.bind();
            out[i] = apps::runStapMealib(apps::StapParams::smallSet(),
                                         rt, /*exclusive=*/false)
                         .prods;
        });
    for (auto &t : threads)
        t.join();
    for (unsigned i = 0; i < kThreads; ++i)
        EXPECT_EQ(std::memcmp(out[i].data(), solo.data(),
                              solo.size() * sizeof(solo[0])),
                  0)
            << "thread " << i;
    // Everything landed in the one session: exact mirror still holds.
    const Cost led = s.ledger().total();
    const Cost agg = rt.accounting().total();
    EXPECT_NEAR(led.seconds, agg.seconds,
                1e-9 * std::abs(agg.seconds));
}

TEST(SessionTorture, DeterministicReductionsUnderContention)
{
    // sdot reduces through the fixed-chunk deterministic tree; its
    // result must be bit-identical no matter how many other client
    // threads hammer the kernel engine at the same time.
    constexpr int kN = 1 << 16;
    std::vector<float> x(kN), y(kN);
    for (int i = 0; i < kN; ++i) {
        x[static_cast<std::size_t>(i)] =
            std::sin(0.01 * static_cast<double>(i));
        y[static_cast<std::size_t>(i)] =
            std::cos(0.013 * static_cast<double>(i));
    }
    const float solo = cblas_sdot(kN, x.data(), 1, y.data(), 1);
    constexpr unsigned kThreads = 8;
    std::vector<float> got(kThreads, 0.0f);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            float acc = solo;
            for (int rep = 0; rep < 16; ++rep) {
                const float v =
                    cblas_sdot(kN, x.data(), 1, y.data(), 1);
                acc = (v == acc) ? v : std::nanf("");
            }
            got[t] = acc;
        });
    for (auto &th : threads)
        th.join();
    for (unsigned t = 0; t < kThreads; ++t) {
        ASSERT_FALSE(std::isnan(got[t])) << "thread " << t;
        EXPECT_EQ(std::memcmp(&got[t], &solo, sizeof(float)), 0)
            << "thread " << t;
    }
}

TEST(SessionTorture, MixedAppsAcrossSessions)
{
    // STAP, SAR and CG side by side on one runtime: every client's
    // output matches its solo oracle.
    runtime::RuntimeConfig cfg = testConfig();
    std::vector<std::complex<float>> stap_solo = soloStap();
    std::vector<mkl::cfloat> sar_solo;
    std::vector<float> cg_solo;
    {
        runtime::MealibRuntime solo(cfg);
        Session s(solo);
        SessionBinding bound = s.bind();
        sar_solo = apps::runSarChain(64, true, solo, 7).image;
        apps::CgOptions opts;
        opts.exclusive = false;
        mkl::CsrMatrix a = apps::cgTestMatrix(500, 2);
        std::vector<float> b(500, 1.0f);
        cg_solo = apps::solveCgMealib(a, b, solo, opts).x;
    }
    runtime::MealibRuntime rt(cfg);
    Session s0(rt), s1(rt), s2(rt);
    std::vector<std::complex<float>> stap_out;
    std::vector<mkl::cfloat> sar_out;
    std::vector<float> cg_out;
    std::thread t0([&] {
        SessionBinding bound = s0.bind();
        stap_out = apps::runStapMealib(apps::StapParams::smallSet(),
                                       rt, /*exclusive=*/false)
                       .prods;
    });
    std::thread t1([&] {
        SessionBinding bound = s1.bind();
        sar_out = apps::runSarChain(64, true, rt, 7).image;
    });
    std::thread t2([&] {
        SessionBinding bound = s2.bind();
        apps::CgOptions opts;
        opts.exclusive = false;
        mkl::CsrMatrix a = apps::cgTestMatrix(500, 2);
        std::vector<float> b(500, 1.0f);
        cg_out = apps::solveCgMealib(a, b, rt, opts).x;
    });
    t0.join();
    t1.join();
    t2.join();
    EXPECT_EQ(std::memcmp(stap_out.data(), stap_solo.data(),
                          stap_solo.size() * sizeof(stap_solo[0])),
              0);
    EXPECT_EQ(std::memcmp(sar_out.data(), sar_solo.data(),
                          sar_solo.size() * sizeof(sar_solo[0])),
              0);
    EXPECT_EQ(std::memcmp(cg_out.data(), cg_solo.data(),
                          cg_solo.size() * sizeof(float)),
              0);
}

} // namespace
} // namespace mealib
