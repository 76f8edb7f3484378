// Tests for the asynchronous command-queue execution engine: per-stack
// queues, hazard inference from descriptor operand intervals, overlap-
// aware accounting, scheduler policies, and the accExecute == submit +
// wait equivalence.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "runtime/runtime.hh"

namespace mealib::runtime {
namespace {

using accel::AccelKind;
using accel::DescriptorProgram;
using accel::OpCall;

RuntimeConfig
twoStacks()
{
    RuntimeConfig cfg;
    cfg.backingBytes = 128_MiB;
    cfg.numStacks = 2;
    return cfg;
}

OpCall
axpyCall(MealibRuntime &rt, const float *x, float *y, std::int64_t n,
         float alpha = 1.0f, float beta = 1.0f)
{
    OpCall c;
    c.kind = AccelKind::AXPY;
    c.n = static_cast<std::uint64_t>(n);
    c.alpha = alpha;
    c.beta = beta;
    c.in0.base = rt.physOf(x);
    c.out.base = rt.physOf(y);
    return c;
}

AccPlanHandle
planAxpy(MealibRuntime &rt, const float *x, float *y, std::int64_t n,
         float alpha = 1.0f, float beta = 1.0f)
{
    DescriptorProgram prog;
    prog.addComp(axpyCall(rt, x, y, n, alpha, beta));
    prog.addPassEnd();
    return rt.accPlan(prog);
}

// Timing-sensitive tests use LOOP descriptors: the flush only covers
// one iteration's operands (accPlan's dirty footprint), so the
// accelerator span dwarfs the host-side submit cost — the compacted
// many-call pattern the library is built around.
constexpr std::int64_t kSliceN = 1 << 13;  // floats per iteration
constexpr std::uint32_t kIters = 256;      // loop trip count
constexpr std::int64_t kLoopedN = kSliceN * kIters;

AccPlanHandle
planLoopedAxpy(MealibRuntime &rt, const float *x, float *y)
{
    OpCall c = axpyCall(rt, x, y, kSliceN);
    c.in0.stride = {kSliceN * 4, 0, 0, 0};
    c.out.stride = {kSliceN * 4, 0, 0, 0};
    accel::LoopSpec loop;
    loop.dims = {kIters, 1, 1, 1};
    DescriptorProgram prog;
    prog.addLoop(loop, 2);
    prog.addComp(c);
    prog.addPassEnd();
    return rt.accPlan(prog);
}

// --- CommandQueue unit behavior ---------------------------------------

TEST(CommandQueue, AdmitsImmediatelyWhileSlotsFree)
{
    CommandQueue q(2);
    EXPECT_DOUBLE_EQ(q.admitSeconds(1.0), 1.0);
    q.push(1.0, 5.0);
    EXPECT_DOUBLE_EQ(q.admitSeconds(1.0), 1.0);
    EXPECT_EQ(q.outstanding(), 1u);
}

TEST(CommandQueue, FullQueueStallsUntilOldestRetires)
{
    CommandQueue q(2);
    q.push(0.0, 4.0);
    q.push(4.0, 9.0);
    // Both slots taken: the next admit waits for the oldest command.
    EXPECT_DOUBLE_EQ(q.admitSeconds(1.0), 4.0);
    q.retireUpTo(4.5);
    EXPECT_EQ(q.outstanding(), 1u);
    EXPECT_DOUBLE_EQ(q.admitSeconds(4.5), 4.5);
    EXPECT_DOUBLE_EQ(q.busyUntilSeconds(), 9.0);
    EXPECT_EQ(q.submitted(), 2u);
}

TEST(CommandQueue, ZeroDepthIsFatal)
{
    EXPECT_THROW(CommandQueue q(0), FatalError);
}

// --- scheduler policies -----------------------------------------------

TEST(Scheduler, PolicyNamesParse)
{
    EXPECT_EQ(schedulerPolicy("round_robin"), SchedulerPolicy::RoundRobin);
    EXPECT_EQ(schedulerPolicy("rr"), SchedulerPolicy::RoundRobin);
    EXPECT_EQ(schedulerPolicy("locality"), SchedulerPolicy::Locality);
    EXPECT_THROW(schedulerPolicy("fifo"), FatalError);
    EXPECT_STREQ(name(SchedulerPolicy::RoundRobin), "round_robin");
    EXPECT_STREQ(name(SchedulerPolicy::Locality), "locality");
}

TEST(Scheduler, RoundRobinCyclesLocalityHonorsHome)
{
    const StackHealthMonitor health(HealthConfig{}, 3);
    Scheduler rr(SchedulerPolicy::RoundRobin);
    EXPECT_EQ(rr.pick(2, health), 0u);
    EXPECT_EQ(rr.pick(2, health), 1u);
    EXPECT_EQ(rr.pick(2, health), 2u);
    EXPECT_EQ(rr.pick(2, health), 0u);
    rr.reset();
    EXPECT_EQ(rr.pick(2, health), 0u);

    Scheduler loc(SchedulerPolicy::Locality);
    EXPECT_EQ(loc.pick(2, health), 2u);
    EXPECT_EQ(loc.pick(0, health), 0u);
    EXPECT_EQ(loc.pick(7, health), 0u); // out-of-range home falls back
}

TEST(Scheduler, DeadStackIsNeverPicked)
{
    StackHealthMonitor health(HealthConfig{}, 3);
    health.markDead(1);
    Scheduler rr(SchedulerPolicy::RoundRobin);
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_NE(rr.pick(0, health), 1u);

    // A dead home reroutes to the next live stack upward.
    Scheduler loc(SchedulerPolicy::Locality);
    EXPECT_EQ(loc.pick(1, health), 2u);
    health.markDead(2);
    EXPECT_EQ(loc.pick(1, health), 0u);
    EXPECT_EQ(loc.pick(2, health), 0u);
}

TEST(Scheduler, QuarantinedStackIsSkippedWhileOneIsSelectable)
{
    HealthConfig cfg;
    cfg.quarantineThreshold = 1.0;
    cfg.windowCommands = 4;
    StackHealthMonitor health(cfg, 3);
    for (std::uint64_t cmd = 0; cmd < 4; ++cmd)
        health.recordOutcome(0, cmd, true);
    ASSERT_EQ(health.state(0), StackHealth::Quarantined);

    Scheduler rr(SchedulerPolicy::RoundRobin);
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_NE(rr.pick(0, health), 0u);
    Scheduler loc(SchedulerPolicy::Locality);
    EXPECT_EQ(loc.pick(0, health), 1u);

    // With every live stack quarantined, pick() falls back to the live
    // set so submissions never strand, and still skips the dead one.
    for (std::uint64_t cmd = 4; cmd < 8; ++cmd)
        health.recordOutcome(1, cmd, true);
    health.markDead(2);
    ASSERT_EQ(health.selectableCount(), 0u);
    EXPECT_EQ(loc.pick(0, health), 0u);
    EXPECT_EQ(loc.pick(2, health), 0u);
    rr.reset();
    EXPECT_EQ(rr.pick(2, health), 0u);
    EXPECT_EQ(rr.pick(2, health), 1u);
    EXPECT_EQ(rr.pick(2, health), 0u);
}

// --- hazard intervals --------------------------------------------------

TEST(AccessInterval, ConflictNeedsOverlapAndAWrite)
{
    AccessInterval r1{0, 100, false};
    AccessInterval r2{50, 150, false};
    AccessInterval w{60, 70, true};
    AccessInterval w2{200, 300, true};
    EXPECT_FALSE(r1.conflictsWith(r2)); // read-read
    EXPECT_TRUE(r1.conflictsWith(w));   // read-write overlap
    EXPECT_TRUE(w.conflictsWith(r1));
    EXPECT_FALSE(w.conflictsWith(w2));  // disjoint writes
}

TEST(AccessInterval, IntervalsCoverLoopStrides)
{
    OpCall c;
    c.kind = AccelKind::AXPY;
    c.n = 256;
    c.in0 = {0, {1024, 0, 0, 0}};
    c.out = {100000, {1024, 0, 0, 0}};
    accel::LoopSpec loop;
    loop.dims = {8, 1, 1, 1};
    DescriptorProgram prog;
    prog.addLoop(loop, 2);
    prog.addComp(c);
    prog.addPassEnd();

    std::vector<AccessInterval> iv = accessIntervals(prog);
    ASSERT_EQ(iv.size(), 2u);
    EXPECT_EQ(iv[0].lo, 0u);
    EXPECT_EQ(iv[0].hi, 7u * 1024u + 256u * 4u); // last slice's end
    EXPECT_FALSE(iv[0].write);
    EXPECT_EQ(iv[1].lo, 100000u);
    EXPECT_TRUE(iv[1].write);
}

// --- overlap of independent plans -------------------------------------

TEST(Queue, IndependentPlansOnTwoStacksOverlap)
{
    MealibRuntime rt(twoStacks());
    const std::int64_t n = kLoopedN;
    auto *x0 = static_cast<float *>(rt.memAllocOn(0, n * 4));
    auto *y0 = static_cast<float *>(rt.memAllocOn(0, n * 4));
    auto *x1 = static_cast<float *>(rt.memAllocOn(1, n * 4));
    auto *y1 = static_cast<float *>(rt.memAllocOn(1, n * 4));

    auto h0 = planLoopedAxpy(rt, x0, y0);
    auto h1 = planLoopedAxpy(rt, x1, y1);
    Event e0 = rt.accSubmitOn(h0, 0);
    Event e1 = rt.accSubmitOn(h1, 1);
    rt.waitAll();

    const RuntimeAccounting &acct = rt.accounting();
    // Acceptance: wall clock beats the serial sum of both invocations.
    EXPECT_LT(acct.makespanSeconds, acct.total().seconds);
    EXPECT_GT(acct.overlapSavedSeconds(), 0.0);
    // The two commands genuinely ran concurrently on the timeline.
    EXPECT_LT(e1.startSeconds(), e0.finishSeconds());
    EXPECT_GT(acct.busyByStack.get("stack0"), 0.0);
    EXPECT_GT(acct.busyByStack.get("stack1"), 0.0);

    rt.accDestroy(h0);
    rt.accDestroy(h1);
}

TEST(Queue, SameStackSerializesInOrder)
{
    MealibRuntime rt(twoStacks());
    const std::int64_t n = 1 << 18;
    auto *x = static_cast<float *>(rt.memAllocOn(0, n * 4));
    auto *y = static_cast<float *>(rt.memAllocOn(0, n * 4));
    auto *z = static_cast<float *>(rt.memAllocOn(0, n * 4));
    auto *w = static_cast<float *>(rt.memAllocOn(0, n * 4));

    auto h0 = planAxpy(rt, x, y, n);
    auto h1 = planAxpy(rt, z, w, n); // independent data, same queue
    Event e0 = rt.accSubmitOn(h0, 0);
    Event e1 = rt.accSubmitOn(h1, 0);
    rt.waitAll();
    EXPECT_GE(e1.startSeconds(), e0.finishSeconds());
    rt.accDestroy(h0);
    rt.accDestroy(h1);
}

// --- hazard ordering ---------------------------------------------------

TEST(Queue, RawHazardOrdersDependentPlans)
{
    MealibRuntime rt(twoStacks());
    const std::int64_t n = kLoopedN;
    auto *x = static_cast<float *>(rt.memAllocOn(0, n * 4));
    auto *y = static_cast<float *>(rt.memAllocOn(0, n * 4));
    auto *z = static_cast<float *>(rt.memAllocOn(1, n * 4));
    for (std::int64_t i = 0; i < n; ++i) {
        x[i] = static_cast<float>(i % 1000);
        y[i] = 1.0f;
        z[i] = 0.0f;
    }

    // p1: y += x. p2: z += y (RAW on y), forced onto the OTHER stack so
    // only the hazard — not queue order — can serialize them.
    auto h1 = planLoopedAxpy(rt, x, y);
    auto h2 = planLoopedAxpy(rt, y, z);
    Event e1 = rt.accSubmitOn(h1, 0);
    Event e2 = rt.accSubmitOn(h2, 1);
    rt.waitAll();

    EXPECT_GE(e2.startSeconds(), e1.finishSeconds());
    // Functional result matches the serial order.
    for (std::int64_t i = 0; i < n; i += 997)
        ASSERT_FLOAT_EQ(z[i], static_cast<float>(i % 1000) + 1.0f) << i;

    rt.accDestroy(h1);
    rt.accDestroy(h2);
}

TEST(Queue, WawAndWarHazardsOrderPlans)
{
    MealibRuntime rt(twoStacks());
    const std::int64_t n = kLoopedN;
    auto *x = static_cast<float *>(rt.memAllocOn(0, n * 4));
    auto *y = static_cast<float *>(rt.memAllocOn(0, n * 4));
    auto *z = static_cast<float *>(rt.memAllocOn(1, n * 4));

    // WAW: both write y.
    auto h1 = planLoopedAxpy(rt, x, y);
    auto h2 = planLoopedAxpy(rt, z, y);
    Event e1 = rt.accSubmitOn(h1, 0);
    Event e2 = rt.accSubmitOn(h2, 1);
    EXPECT_GE(e2.startSeconds(), e1.finishSeconds());
    rt.waitAll();
    rt.accDestroy(h1);
    rt.accDestroy(h2);

    // WAR: reader of x first, then a writer of x.
    auto h3 = planLoopedAxpy(rt, x, y);
    auto h4 = planLoopedAxpy(rt, z, x);
    Event e3 = rt.accSubmitOn(h3, 0);
    Event e4 = rt.accSubmitOn(h4, 1);
    EXPECT_GE(e4.startSeconds(), e3.finishSeconds());
    rt.waitAll();
    rt.accDestroy(h3);
    rt.accDestroy(h4);
}

TEST(Queue, HazardWaitsForTheLastOfSeveralConflicts)
{
    // A command conflicting with several in-flight ones starts after the
    // last of them finishes, not after the first one found.
    RuntimeConfig cfg = twoStacks();
    cfg.numStacks = 3;
    MealibRuntime rt(cfg);
    const std::int64_t n = kLoopedN;
    auto *x = static_cast<float *>(rt.memAllocOn(0, n * 4));
    auto *a = static_cast<float *>(rt.memAllocOn(0, n * 4));
    auto *b = static_cast<float *>(rt.memAllocOn(1, n * 4));
    auto *c = static_cast<float *>(rt.memAllocOn(1, n * 4));

    auto h1 = planLoopedAxpy(rt, x, a); // a += x on stack 0
    auto h2 = planLoopedAxpy(rt, x, c); // c += x, ahead of h3 on stack 1
    auto h3 = planLoopedAxpy(rt, x, b); // b += x, finishes last
    auto h4 = planLoopedAxpy(rt, a, b); // reads a, writes b
    Event e1 = rt.accSubmitOn(h1, 0);
    Event e2 = rt.accSubmitOn(h2, 1);
    Event e3 = rt.accSubmitOn(h3, 1);
    Event e4 = rt.accSubmitOn(h4, 2);
    EXPECT_GT(e3.finishSeconds(), e1.finishSeconds());
    EXPECT_GE(e4.startSeconds(), e3.finishSeconds());
    rt.waitAll();
    for (AccPlanHandle h : {h1, h2, h3, h4})
        rt.accDestroy(h);
}

TEST(Queue, DisjointHalvesOfOneBufferDoNotConflict)
{
    // Control for the hazard tests: identical shape and sizing, but the
    // two plans touch disjoint halves — so they must overlap instead of
    // serializing.
    MealibRuntime rt(twoStacks());
    const std::int64_t n = kLoopedN;
    auto *x = static_cast<float *>(rt.memAllocOn(0, 2 * n * 4));
    auto *y = static_cast<float *>(rt.memAllocOn(1, 2 * n * 4));

    auto h1 = planLoopedAxpy(rt, x, y);
    auto h2 = planLoopedAxpy(rt, x + n, y + n);
    Event e1 = rt.accSubmitOn(h1, 0);
    Event e2 = rt.accSubmitOn(h2, 1);
    EXPECT_LT(e2.startSeconds(), e1.finishSeconds());
    rt.waitAll();
    rt.accDestroy(h1);
    rt.accDestroy(h2);
}

// --- queue depth -------------------------------------------------------

TEST(Queue, ShallowQueueStallsTheHost)
{
    RuntimeConfig deep = twoStacks();
    deep.queueDepth = 8;
    RuntimeConfig shallow = twoStacks();
    shallow.queueDepth = 1;
    const std::int64_t n = kLoopedN;

    auto submit_three = [&](MealibRuntime &rt) {
        auto *x = static_cast<float *>(rt.memAllocOn(0, n * 4));
        std::vector<float *> ys;
        std::vector<AccPlanHandle> hs;
        for (int i = 0; i < 3; ++i) {
            ys.push_back(
                static_cast<float *>(rt.memAllocOn(0, n * 4)));
            hs.push_back(planLoopedAxpy(rt, x, ys.back()));
            rt.accSubmitOn(hs.back(), 0);
        }
        double now = rt.nowSeconds();
        rt.waitAll();
        for (auto h : hs)
            rt.accDestroy(h);
        return now;
    };

    MealibRuntime rt_deep(deep);
    MealibRuntime rt_shallow(shallow);
    // With depth 1 each submit waits for the previous command; the host
    // clock after the third submit is far ahead of the deep queue's.
    EXPECT_GT(submit_three(rt_shallow), submit_three(rt_deep));
}

// --- accExecute equivalence and serial accounting ----------------------

TEST(Queue, ExecuteMatchesSubmitPlusWait)
{
    const std::int64_t n = 1 << 18;
    auto run = [&](bool async) {
        MealibRuntime rt(twoStacks());
        auto *x = static_cast<float *>(rt.memAllocOn(1, n * 4));
        auto *y = static_cast<float *>(rt.memAllocOn(1, n * 4));
        auto h = planAxpy(rt, x, y, n);
        if (async) {
            Event e = rt.accSubmitOn(h, rt.homeStackOf(h));
            e.wait();
        } else {
            rt.accExecute(h);
        }
        rt.accDestroy(h);
        return rt.accounting();
    };

    RuntimeAccounting sync = run(false);
    RuntimeAccounting async = run(true);
    EXPECT_DOUBLE_EQ(sync.accel.seconds, async.accel.seconds);
    EXPECT_DOUBLE_EQ(sync.accel.joules, async.accel.joules);
    EXPECT_DOUBLE_EQ(sync.invocation.seconds, async.invocation.seconds);
    EXPECT_DOUBLE_EQ(sync.invocation.joules, async.invocation.joules);
    EXPECT_DOUBLE_EQ(sync.makespanSeconds, async.makespanSeconds);
}

TEST(Queue, BlockingWorkloadMakespanEqualsSerialTotal)
{
    MealibRuntime rt(twoStacks());
    const std::int64_t n = 1 << 18;
    auto *x = static_cast<float *>(rt.memAllocOn(0, n * 4));
    auto *y = static_cast<float *>(rt.memAllocOn(0, n * 4));
    for (int i = 0; i < 4; ++i) {
        auto h = planAxpy(rt, x, y, n);
        rt.accExecute(h);
        rt.accDestroy(h);
    }
    host::KernelProfile p;
    p.name = "host";
    p.flops = 1e8;
    p.bytesRead = 1e6;
    rt.runOnHost(p);

    const RuntimeAccounting &acct = rt.accounting();
    EXPECT_NEAR(acct.makespanSeconds, acct.total().seconds,
                1e-12 * acct.total().seconds);
}

TEST(Queue, WaitAdvancesClockButNotBusyTime)
{
    MealibRuntime rt(twoStacks());
    const std::int64_t n = 1 << 20;
    auto *x = static_cast<float *>(rt.memAllocOn(0, n * 4));
    auto *y = static_cast<float *>(rt.memAllocOn(0, n * 4));
    auto h = planAxpy(rt, x, y, n);
    Event e = rt.accSubmitOn(h, 0);
    double submitted = rt.nowSeconds();
    EXPECT_EQ(rt.inflightCount(), 1u);
    e.wait();
    EXPECT_EQ(rt.inflightCount(), 0u);
    EXPECT_GT(rt.nowSeconds(), submitted);
    // The wait itself is idle time, not host work.
    EXPECT_LT(rt.accounting().hostBusySeconds, rt.nowSeconds());
    // A second wait is a no-op.
    double now = rt.nowSeconds();
    e.wait();
    EXPECT_DOUBLE_EQ(rt.nowSeconds(), now);
    rt.accDestroy(h);
}

// --- scheduler-driven submission --------------------------------------

TEST(Queue, RoundRobinSpreadsLocalityStaysHome)
{
    RuntimeConfig cfg = twoStacks();
    cfg.scheduler = SchedulerPolicy::RoundRobin;
    MealibRuntime rr(cfg);
    const std::int64_t n = 4096;
    auto *x = static_cast<float *>(rr.memAllocOn(0, n * 4));
    auto *y = static_cast<float *>(rr.memAllocOn(0, n * 4));
    auto h1 = planAxpy(rr, x, y, n);
    auto h2 = planAxpy(rr, x, y, n);
    EXPECT_EQ(rr.accSubmit(h1).stack(), 0u);
    EXPECT_EQ(rr.accSubmit(h2).stack(), 1u);
    rr.waitAll();
    rr.accDestroy(h1);
    rr.accDestroy(h2);

    MealibRuntime loc(twoStacks()); // Locality is the default
    auto *x1 = static_cast<float *>(loc.memAllocOn(1, n * 4));
    auto *y1 = static_cast<float *>(loc.memAllocOn(1, n * 4));
    auto h = planAxpy(loc, x1, y1, n);
    EXPECT_EQ(loc.homeStackOf(h), 1u);
    EXPECT_EQ(loc.accSubmit(h).stack(), 1u);
    loc.waitAll();
    loc.accDestroy(h);
}

// --- reset and stale events -------------------------------------------

TEST(Queue, ResetProducesIdenticalBackToBackLedgers)
{
    MealibRuntime rt(twoStacks());
    const std::int64_t n = 1 << 18;
    auto *x0 = static_cast<float *>(rt.memAllocOn(0, n * 4));
    auto *y0 = static_cast<float *>(rt.memAllocOn(0, n * 4));
    auto *x1 = static_cast<float *>(rt.memAllocOn(1, n * 4));
    auto *y1 = static_cast<float *>(rt.memAllocOn(1, n * 4));

    auto workload = [&] {
        auto h0 = planAxpy(rt, x0, y0, n);
        auto h1 = planAxpy(rt, x1, y1, n);
        rt.accSubmit(h0);
        rt.accSubmit(h1);
        rt.waitAll();
        host::KernelProfile p;
        p.name = "host";
        p.flops = 1e8;
        rt.runOnHost(p);
        rt.accDestroy(h0);
        rt.accDestroy(h1);
        return rt.accounting();
    };

    RuntimeAccounting first = workload();
    rt.resetAccounting();
    RuntimeAccounting second = workload();

    EXPECT_DOUBLE_EQ(first.host.seconds, second.host.seconds);
    EXPECT_DOUBLE_EQ(first.host.joules, second.host.joules);
    EXPECT_DOUBLE_EQ(first.accel.seconds, second.accel.seconds);
    EXPECT_DOUBLE_EQ(first.accel.joules, second.accel.joules);
    EXPECT_DOUBLE_EQ(first.invocation.seconds, second.invocation.seconds);
    EXPECT_DOUBLE_EQ(first.invocation.joules, second.invocation.joules);
    EXPECT_DOUBLE_EQ(first.makespanSeconds, second.makespanSeconds);
    EXPECT_DOUBLE_EQ(first.hostBusySeconds, second.hostBusySeconds);
    EXPECT_DOUBLE_EQ(first.busyByStack.get("stack0"),
                     second.busyByStack.get("stack0"));
    EXPECT_DOUBLE_EQ(first.busyByStack.get("stack1"),
                     second.busyByStack.get("stack1"));
}

TEST(Queue, StaleEventWaitIsNoOpAfterReset)
{
    MealibRuntime rt(twoStacks());
    const std::int64_t n = 1 << 16;
    auto *x = static_cast<float *>(rt.memAllocOn(0, n * 4));
    auto *y = static_cast<float *>(rt.memAllocOn(0, n * 4));
    auto h = planAxpy(rt, x, y, n);
    Event e = rt.accSubmitOn(h, 0);
    rt.resetAccounting();
    EXPECT_DOUBLE_EQ(rt.nowSeconds(), 0.0);
    e.wait(); // must not advance the fresh timeline
    EXPECT_DOUBLE_EQ(rt.nowSeconds(), 0.0);
    EXPECT_EQ(rt.inflightCount(), 0u);
    rt.accDestroy(h);
}

TEST(Queue, InvalidEventIsFatal)
{
    Event e;
    EXPECT_FALSE(e.valid());
    EXPECT_THROW(e.wait(), FatalError);
    EXPECT_THROW(e.stack(), FatalError);
    EXPECT_THROW(e.finishSeconds(), FatalError);
}

} // namespace
} // namespace mealib::runtime
