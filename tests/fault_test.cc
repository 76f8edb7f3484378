// Tests for the seeded fault-injection and graceful-degradation layer:
// bit-for-bit determinism (disabled faults, same-seed replay, reset
// replay), fallback numerics, retry/watchdog accounting, scheduler
// avoidance of failed stacks, and mid-flight queue drains.

#include <cstring>
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

// Large loops keep the accelerator span well above the host-side submit
// cost, so a mid-flight failStack() catches the backlog still queued.
constexpr std::int64_t kSliceN = 1 << 13; // floats per iteration
constexpr std::uint32_t kIters = 256;     // loop trip count
constexpr std::int64_t kN = kSliceN * kIters;

RuntimeConfig
baseConfig(unsigned stacks = 2)
{
    RuntimeConfig cfg;
    cfg.backingBytes = 128_MiB;
    cfg.numStacks = stacks;
    return cfg;
}

AccPlanHandle
planLoopedAxpy(MealibRuntime &rt, const float *x, float *y,
               float alpha = 2.0f, float beta = 1.0f, bool complexData = false)
{
    OpCall c;
    c.kind = AccelKind::AXPY;
    // A complex slice is half as many elements over the same bytes.
    c.n = static_cast<std::uint64_t>(complexData ? kSliceN / 2 : kSliceN);
    c.alpha = alpha;
    c.beta = beta;
    c.complexData = complexData;
    c.in0.base = rt.physOf(x);
    c.out.base = rt.physOf(y);
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

/** beta = 0 writes a disjoint interval it never reads: rerun-safe, so
 * the checkpoint layer may snapshot and resume it (runtime.hh). */
AccPlanHandle
planRerunSafeAxpy(MealibRuntime &rt, const float *x, float *y)
{
    return planLoopedAxpy(rt, x, y, 2.0f, 0.0f);
}

/** Per-stack operand arrays of one workload instance. */
struct Operands
{
    std::vector<float *> x, y;
};

Operands
fillOperands(MealibRuntime &rt)
{
    Operands ops;
    for (unsigned s = 0; s < rt.numStacks(); ++s) {
        auto *x = static_cast<float *>(rt.memAllocOn(s, kN * 4));
        auto *y = static_cast<float *>(rt.memAllocOn(s, kN * 4));
        for (std::int64_t i = 0; i < kN; ++i) {
            x[i] = 0.25f * static_cast<float>(i % 37) + s;
            y[i] = 1.0f + 0.5f * static_cast<float>(i % 11);
        }
        ops.x.push_back(x);
        ops.y.push_back(y);
    }
    return ops;
}

/** Submit a few chained commands per stack and wait for all of them. */
std::vector<Event>
runWorkload(MealibRuntime &rt, const Operands &ops,
            unsigned perStack = 3)
{
    std::vector<Event> events;
    for (unsigned round = 0; round < perStack; ++round)
        for (unsigned s = 0; s < rt.numStacks(); ++s) {
            AccPlanHandle h = planLoopedAxpy(rt, ops.x[s], ops.y[s]);
            events.push_back(rt.accSubmit(h));
        }
    rt.waitAll();
    return events;
}

void
expectSameLedger(const RuntimeAccounting &a, const RuntimeAccounting &b)
{
    EXPECT_EQ(a.host.seconds, b.host.seconds);
    EXPECT_EQ(a.host.joules, b.host.joules);
    EXPECT_EQ(a.accel.seconds, b.accel.seconds);
    EXPECT_EQ(a.accel.joules, b.accel.joules);
    EXPECT_EQ(a.invocation.seconds, b.invocation.seconds);
    EXPECT_EQ(a.invocation.joules, b.invocation.joules);
    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.hostBusySeconds, b.hostBusySeconds);
    EXPECT_EQ(a.fallbackSeconds, b.fallbackSeconds);
    EXPECT_EQ(a.retryCount, b.retryCount);
    EXPECT_EQ(a.fallbackCount, b.fallbackCount);
    EXPECT_EQ(a.watchdogFires, b.watchdogFires);
    EXPECT_EQ(a.eccCorrected, b.eccCorrected);
    EXPECT_EQ(a.integrity.seconds, b.integrity.seconds);
    EXPECT_EQ(a.integrity.joules, b.integrity.joules);
    EXPECT_EQ(a.silentDetected, b.silentDetected);
    EXPECT_EQ(a.silentUndetected, b.silentUndetected);
    EXPECT_EQ(a.checkpointsTaken, b.checkpointsTaken);
    EXPECT_EQ(a.resumedFromCheckpoint, b.resumedFromCheckpoint);
    EXPECT_EQ(a.quarantines, b.quarantines);
    EXPECT_EQ(a.readmissions, b.readmissions);
    EXPECT_EQ(a.busyByStack.parts(), b.busyByStack.parts());
    EXPECT_EQ(a.timeByAccel.parts(), b.timeByAccel.parts());
    EXPECT_EQ(a.energyByAccel.parts(), b.energyByAccel.parts());
}

// --- configuration ----------------------------------------------------

TEST(FaultConfig, RejectsRatesOutsideUnitInterval)
{
    RuntimeConfig cfg = baseConfig();
    cfg.fault.hangRate = 1.5;
    EXPECT_EQ(cfg.validate().code(), ErrorCode::InvalidArgument);
    cfg.fault.hangRate = -0.1;
    EXPECT_EQ(cfg.validate().code(), ErrorCode::InvalidArgument);
    // The runtime constructor converts the report into a recoverable
    // MealibError (not a process-level FatalError).
    EXPECT_THROW(MealibRuntime{cfg}, MealibError);
    cfg.fault.hangRate = 0.0;
    cfg.fault.silentCorruptionRate = 2.0;
    EXPECT_EQ(cfg.validate().code(), ErrorCode::InvalidArgument);
}

TEST(FaultConfig, RejectsScriptedFailureOutOfRange)
{
    RuntimeConfig cfg = baseConfig(2);
    cfg.fault.failStack = 2;
    EXPECT_EQ(cfg.validate().code(), ErrorCode::InvalidArgument);
    EXPECT_THROW(MealibRuntime{cfg}, MealibError);
}

TEST(FaultConfig, RejectsBadRetryAndWatchdog)
{
    RuntimeConfig cfg = baseConfig();
    cfg.watchdogSeconds = 0.0;
    EXPECT_EQ(cfg.validate().code(), ErrorCode::InvalidArgument);
}

TEST(FaultConfig, DisabledByDefault)
{
    RuntimeConfig cfg;
    EXPECT_FALSE(cfg.fault.enabled());
    // A non-zero seed alone does not arm the injector.
    cfg.fault.seed = 12345;
    EXPECT_FALSE(cfg.fault.enabled());
}

// --- determinism ------------------------------------------------------

TEST(FaultDeterminism, DisabledFaultsLeaveLedgerBitForBit)
{
    // A default config and one carrying a (disarmed) fault seed must
    // produce byte-identical ledgers: the whole fault path is gated on
    // enabled(), so shipping the feature cannot perturb clean runs.
    MealibRuntime rtA(baseConfig());
    Operands opsA = fillOperands(rtA);
    runWorkload(rtA, opsA);

    RuntimeConfig seeded = baseConfig();
    seeded.fault.seed = 98765;
    MealibRuntime rtB(seeded);
    Operands opsB = fillOperands(rtB);
    runWorkload(rtB, opsB);

    expectSameLedger(rtA.accounting(), rtB.accounting());
    EXPECT_EQ(rtA.accounting().retryCount, 0u);
    EXPECT_EQ(rtA.accounting().fallbackCount, 0u);
    EXPECT_TRUE(rtA.faultModel().history().empty());
    for (unsigned s = 0; s < 2; ++s)
        EXPECT_EQ(0, std::memcmp(opsA.y[s], opsB.y[s], kN * 4));
}

TEST(FaultDeterminism, SameSeedSameLedgerAcrossRuns)
{
    RuntimeConfig cfg = baseConfig();
    cfg.fault.seed = 424242;
    cfg.fault.computeTransientRate = 0.3;
    cfg.fault.eccCorrectableRate = 0.3;
    cfg.fault.linkCrcRate = 0.1;

    MealibRuntime rtA(cfg);
    Operands opsA = fillOperands(rtA);
    runWorkload(rtA, opsA);

    MealibRuntime rtB(cfg);
    Operands opsB = fillOperands(rtB);
    runWorkload(rtB, opsB);

    expectSameLedger(rtA.accounting(), rtB.accounting());
    ASSERT_EQ(rtA.faultModel().history().size(),
              rtB.faultModel().history().size());
    EXPECT_FALSE(rtA.faultModel().history().empty());
    for (std::size_t i = 0; i < rtA.faultModel().history().size(); ++i) {
        const fault::FaultEvent &a = rtA.faultModel().history()[i];
        const fault::FaultEvent &b = rtB.faultModel().history()[i];
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.stack, b.stack);
        EXPECT_EQ(a.command, b.command);
        EXPECT_EQ(a.attempt, b.attempt);
    }
}

TEST(FaultDeterminism, ResetAccountingReplaysIdentically)
{
    RuntimeConfig cfg = baseConfig();
    cfg.fault.seed = 7;
    cfg.fault.computeTransientRate = 0.4;
    cfg.fault.hangRate = 0.1;

    MealibRuntime rt(cfg);
    Operands ops = fillOperands(rt);
    runWorkload(rt, ops);
    RuntimeAccounting first = rt.accounting();
    std::size_t faults = rt.faultModel().history().size();

    rt.resetAccounting();
    runWorkload(rt, ops);
    expectSameLedger(first, rt.accounting());
    EXPECT_EQ(faults, rt.faultModel().history().size());
}

TEST(FaultDeterminism, DifferentSeedsDiverge)
{
    RuntimeConfig cfg = baseConfig();
    cfg.fault.computeTransientRate = 0.5;
    cfg.fault.seed = 1;
    MealibRuntime rtA(cfg);
    Operands opsA = fillOperands(rtA);
    runWorkload(rtA, opsA);

    cfg.fault.seed = 2;
    MealibRuntime rtB(cfg);
    Operands opsB = fillOperands(rtB);
    runWorkload(rtB, opsB);

    // With a 50% per-attempt rate over dozens of attempts, identical
    // histories under different seeds would mean the seed is ignored.
    EXPECT_NE(rtA.faultModel().history().size() +
                  rtA.accounting().retryCount,
              rtB.faultModel().history().size() +
                  rtB.accounting().retryCount);
}

// --- recovery paths ---------------------------------------------------

TEST(FaultRecovery, FallbackNumericsMatchFaultFree)
{
    // Every command hangs and the budget is zero: everything completes
    // through the host-fallback path. Results must be bit-identical to
    // a fault-free run (the functional engine is shared).
    MealibRuntime clean(baseConfig());
    Operands opsClean = fillOperands(clean);
    runWorkload(clean, opsClean);

    RuntimeConfig cfg = baseConfig();
    cfg.fault.seed = 11;
    cfg.fault.hangRate = 1.0;
    cfg.retry.maxRetries = 0;
    MealibRuntime rt(cfg);
    Operands ops = fillOperands(rt);
    std::vector<Event> events = runWorkload(rt, ops);

    for (Event &ev : events) {
        EXPECT_EQ(ev.state(), EventState::FellBack);
        EXPECT_TRUE(ev.status().ok());
        EXPECT_TRUE(ev.stats().fellBack);
        EXPECT_TRUE(completed(ev.state()));
    }
    const RuntimeAccounting &acct = rt.accounting();
    EXPECT_GT(acct.fallbackSeconds, 0.0);
    EXPECT_EQ(acct.fallbackCount, events.size());
    EXPECT_EQ(acct.watchdogFires, events.size());
    for (unsigned s = 0; s < 2; ++s)
        EXPECT_EQ(0, std::memcmp(opsClean.y[s], ops.y[s], kN * 4));
}

TEST(FaultRecovery, WatchdogFiresOncePerHungAttempt)
{
    RuntimeConfig cfg = baseConfig(1);
    cfg.fault.seed = 3;
    cfg.fault.hangRate = 1.0;
    cfg.retry.maxRetries = 2;
    MealibRuntime rt(cfg);
    Operands ops = fillOperands(rt);

    AccPlanHandle h = planLoopedAxpy(rt, ops.x[0], ops.y[0]);
    Event ev = rt.accSubmit(h);
    EXPECT_EQ(ev.state(), EventState::FellBack);
    EXPECT_EQ(ev.retries(), 2u);
    EXPECT_EQ(rt.accounting().watchdogFires, 3u); // initial try + 2
    EXPECT_EQ(rt.accounting().retryCount, 2u);
    EXPECT_EQ(rt.accounting().fallbackCount, 1u);
}

TEST(FaultRecovery, ExhaustionWithoutFallbackTimesOut)
{
    RuntimeConfig cfg = baseConfig(1);
    cfg.fault.seed = 3;
    cfg.fault.hangRate = 1.0;
    cfg.retry.maxRetries = 1;
    cfg.retry.hostFallback = false;
    MealibRuntime rt(cfg);
    Operands ops = fillOperands(rt);

    Event ev = rt.accSubmit(planLoopedAxpy(rt, ops.x[0], ops.y[0]));
    EXPECT_EQ(ev.state(), EventState::TimedOut);
    EXPECT_FALSE(ev.status().ok());
    EXPECT_EQ(ev.status().code(), ErrorCode::Timeout);
    EXPECT_FALSE(completed(ev.state()));
    EXPECT_EQ(rt.accounting().fallbackCount, 0u);
    rt.waitAll();
}

TEST(FaultRecovery, TransientRetrySucceedsOnAccelerator)
{
    RuntimeConfig cfg = baseConfig();
    cfg.fault.seed = 99;
    cfg.fault.computeTransientRate = 0.5;
    cfg.retry.maxRetries = 8; // enough to outlast a 50% coin
    MealibRuntime clean(baseConfig());
    Operands opsClean = fillOperands(clean);
    runWorkload(clean, opsClean);

    MealibRuntime rt(cfg);
    Operands ops = fillOperands(rt);
    std::vector<Event> events = runWorkload(rt, ops);

    unsigned retried = 0;
    for (Event &ev : events) {
        EXPECT_TRUE(completed(ev.state()));
        if (ev.state() == EventState::Retried) {
            ++retried;
            EXPECT_GT(ev.retries(), 0u);
            EXPECT_GT(ev.stats().faultPenalty.seconds, 0.0);
        }
    }
    EXPECT_GT(retried, 0u);
    EXPECT_EQ(rt.accounting().fallbackCount, 0u);
    EXPECT_GT(rt.accounting().retryCount, 0u);
    for (unsigned s = 0; s < 2; ++s)
        EXPECT_EQ(0, std::memcmp(opsClean.y[s], ops.y[s], kN * 4));
}

TEST(FaultRecovery, CorrectedEccIsLatencyOnly)
{
    RuntimeConfig cfg = baseConfig(1);
    cfg.fault.seed = 5;
    cfg.fault.eccCorrectableRate = 1.0;
    MealibRuntime rt(cfg);
    Operands ops = fillOperands(rt);

    Event ev = rt.accSubmit(planLoopedAxpy(rt, ops.x[0], ops.y[0]));
    EXPECT_EQ(ev.state(), EventState::Done); // corrected != failed
    EXPECT_EQ(ev.retries(), 0u);
    EXPECT_EQ(rt.accounting().eccCorrected, 1u);
    EXPECT_GT(ev.stats().faultPenalty.seconds, 0.0);
    EXPECT_EQ(rt.accounting().retryCount, 0u);
}

TEST(FaultLadder, NeverFiringFaultsMatchFaultFree)
{
    // Injection armed at a rate that never fires walks every command
    // through the same retry ladder as injection off: with verification
    // and checkpointing on, tracks, counters, journal entries and event
    // states must match bit for bit.
    RuntimeConfig cfg = baseConfig();
    cfg.integrity.verifyTransfers = true;
    cfg.checkpoint.intervalComps = 64;
    RuntimeConfig armed = cfg;
    armed.fault.seed = 5;
    armed.fault.eccCorrectableRate = 1e-300;
    ASSERT_TRUE(armed.fault.enabled());

    auto submitAll = [](MealibRuntime &rt, const Operands &ops) {
        std::vector<Event> events;
        for (unsigned s = 0; s < rt.numStacks(); ++s) {
            events.push_back(
                rt.accSubmit(planRerunSafeAxpy(rt, ops.x[s], ops.y[s])));
            events.push_back(
                rt.accSubmit(planLoopedAxpy(rt, ops.x[s], ops.y[s])));
        }
        rt.waitAll();
        return events;
    };
    MealibRuntime off(cfg);
    const std::vector<Event> evOff = submitAll(off, fillOperands(off));
    MealibRuntime on(armed);
    const std::vector<Event> evOn = submitAll(on, fillOperands(on));

    EXPECT_TRUE(on.faultModel().history().empty());
    expectSameLedger(off.accounting(), on.accounting());
    ASSERT_EQ(off.ledger().tracks().size(), on.ledger().tracks().size());
    for (const auto &[name, c] : off.ledger().tracks()) {
        EXPECT_EQ(c.seconds, on.ledger().track(name).seconds) << name;
        EXPECT_EQ(c.joules, on.ledger().track(name).joules) << name;
    }
    EXPECT_FALSE(off.ledger().counters().empty());
    EXPECT_EQ(off.ledger().counters(), on.ledger().counters());

    const std::vector<CheckpointRecord> &a = off.journal().log();
    const std::vector<CheckpointRecord> &b = on.journal().log();
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].command, b[i].command);
        EXPECT_EQ(a[i].stack, b[i].stack);
        EXPECT_EQ(a[i].comps, b[i].comps);
        EXPECT_EQ(a[i].fraction, b[i].fraction);
        EXPECT_EQ(a[i].bytes, b[i].bytes);
    }
    ASSERT_EQ(evOff.size(), evOn.size());
    for (std::size_t i = 0; i < evOff.size(); ++i) {
        EXPECT_EQ(evOff[i].state(), evOn[i].state());
        EXPECT_EQ(evOff[i].stack(), evOn[i].stack());
        EXPECT_EQ(evOff[i].startSeconds(), evOn[i].startSeconds());
        EXPECT_EQ(evOff[i].finishSeconds(), evOn[i].finishSeconds());
        EXPECT_EQ(evOff[i].stats().total.seconds,
                  evOn[i].stats().total.seconds);
        EXPECT_EQ(evOff[i].stats().total.joules,
                  evOn[i].stats().total.joules);
    }
}

// --- end-to-end integrity ---------------------------------------------

TEST(Integrity, SilentCorruptionCaughtAndRetried)
{
    // Every attempt silently corrupts; end-to-end verification turns
    // each into a *detected* failure, the ladder exhausts its retries,
    // and the command completes through the host. The functional
    // results were computed once on the shared engine, so they still
    // match a fault-free run bit-for-bit.
    MealibRuntime clean(baseConfig(1));
    Operands opsClean = fillOperands(clean);
    clean.accSubmit(planLoopedAxpy(clean, opsClean.x[0], opsClean.y[0]));
    clean.waitAll();

    RuntimeConfig cfg = baseConfig(1);
    cfg.fault.seed = 21;
    cfg.fault.silentCorruptionRate = 1.0;
    cfg.integrity.verifyTransfers = true;
    cfg.retry.maxRetries = 2;
    MealibRuntime rt(cfg);
    Operands ops = fillOperands(rt);

    Event ev = rt.accSubmit(planLoopedAxpy(rt, ops.x[0], ops.y[0]));
    EXPECT_EQ(ev.state(), EventState::FellBack);
    EXPECT_EQ(rt.accounting().silentDetected, 3u); // initial try + 2
    EXPECT_EQ(rt.accounting().silentUndetected, 0u);
    EXPECT_EQ(rt.accounting().fallbackCount, 1u);
    EXPECT_GT(rt.accounting().integrity.seconds, 0.0);
    EXPECT_GT(ev.stats().integrity.seconds, 0.0);
    bool sawSilent = false;
    for (const fault::FaultEvent &fe : rt.faultModel().history())
        sawSilent |= fe.kind == fault::FaultKind::SilentCorruption;
    EXPECT_TRUE(sawSilent);
    EXPECT_EQ(0, std::memcmp(opsClean.y[0], ops.y[0], kN * 4));
}

TEST(Integrity, SilentCorruptionMissedWithoutVerification)
{
    // With verification off the corruption sails through: the command
    // reports Done and only the (test-visible) undetected counter knows.
    RuntimeConfig cfg = baseConfig(1);
    cfg.fault.seed = 21;
    cfg.fault.silentCorruptionRate = 1.0;
    MealibRuntime rt(cfg);
    Operands ops = fillOperands(rt);

    Event ev = rt.accSubmit(planLoopedAxpy(rt, ops.x[0], ops.y[0]));
    EXPECT_EQ(ev.state(), EventState::Done);
    EXPECT_EQ(rt.accounting().silentDetected, 0u);
    EXPECT_EQ(rt.accounting().silentUndetected, 1u);
    EXPECT_EQ(rt.accounting().retryCount, 0u);
    EXPECT_EQ(rt.accounting().integrity.seconds, 0.0);
}

TEST(Integrity, VerificationPricedOnIntegrityTrack)
{
    // Verification with no faults injected: a pure tax, priced from
    // the machine profile and posted to the ledger's `integrity` track.
    RuntimeConfig cfg = baseConfig();
    cfg.integrity.verifyTransfers = true;
    MealibRuntime rt(cfg);
    Operands ops = fillOperands(rt);
    runWorkload(rt, ops);

    const RuntimeAccounting &acct = rt.accounting();
    EXPECT_GT(acct.integrity.seconds, 0.0);
    EXPECT_GT(acct.integrity.joules, 0.0);

    // Verification only reads: numerics match an unverified run.
    MealibRuntime plain(baseConfig());
    Operands opsPlain = fillOperands(plain);
    runWorkload(plain, opsPlain);
    for (unsigned s = 0; s < 2; ++s)
        EXPECT_EQ(0, std::memcmp(opsPlain.y[s], ops.y[s], kN * 4));
}

// --- checkpoint/replay ------------------------------------------------

TEST(Checkpoint, SnapshotsCommitAtConfiguredInterval)
{
    // 256 expanded COMPs at interval 64 commit snapshots at 25/50/75%
    // of the span (never at 100% — the command is finished there).
    RuntimeConfig cfg = baseConfig(1);
    cfg.checkpoint.intervalComps = 64;
    MealibRuntime rt(cfg);
    Operands ops = fillOperands(rt);

    Event ev = rt.accSubmit(planRerunSafeAxpy(rt, ops.x[0], ops.y[0]));
    EXPECT_EQ(rt.journal().taken(), 3u);
    EXPECT_EQ(rt.accounting().checkpointsTaken, 3u);
    EXPECT_EQ(ev.stats().checkpoints, 3u);
    EXPECT_GT(rt.accounting().integrity.joules, 0.0); // journal energy
    const std::vector<CheckpointRecord> &log = rt.journal().log();
    ASSERT_EQ(log.size(), 3u);
    for (std::size_t i = 0; i < log.size(); ++i) {
        EXPECT_EQ(log[i].comps, 64u * (i + 1));
        EXPECT_EQ(log[i].fraction, 0.25 * static_cast<double>(i + 1));
        EXPECT_GT(log[i].bytes, 0u);
    }

    // A beta != 0 AXPY reads what it writes, so replaying a suffix
    // would double-apply it: never checkpointed.
    rt.accSubmit(planLoopedAxpy(rt, ops.x[0], ops.y[0]));
    EXPECT_EQ(rt.journal().taken(), 3u);
    // Nor is a complex AXPY with a real scalar (beta = imag(alpha) = 0):
    // the layer runs it as caxpy, which accumulates into y.
    rt.accSubmit(planLoopedAxpy(rt, ops.x[0], ops.y[0], 2.0f, 0.0f, true));
    EXPECT_EQ(rt.journal().taken(), 3u);
    rt.waitAll();
}

TEST(Checkpoint, ResumeRebatesReexecutedSpan)
{
    // Same seed, same rates, with and without checkpointing: the fault
    // sequence is identical (checkpointing consumes no RNG draws), so
    // the only delta is the resume rebate — every retry that restarts
    // from a committed snapshot repays the span it no longer re-runs.
    RuntimeConfig cfg = baseConfig();
    cfg.fault.seed = 31;
    cfg.fault.computeTransientRate = 0.5;
    cfg.retry.maxRetries = 8;

    auto penalty = [](std::vector<Event> &events) {
        double s = 0.0;
        for (Event &ev : events)
            s += ev.stats().faultPenalty.seconds;
        return s;
    };
    auto submitAll = [](MealibRuntime &rt, Operands &ops) {
        std::vector<Event> events;
        for (unsigned round = 0; round < 3; ++round)
            for (unsigned s = 0; s < rt.numStacks(); ++s)
                events.push_back(rt.accSubmit(
                    planRerunSafeAxpy(rt, ops.x[s], ops.y[s])));
        rt.waitAll();
        return events;
    };

    MealibRuntime plain(cfg);
    Operands opsPlain = fillOperands(plain);
    std::vector<Event> evPlain = submitAll(plain, opsPlain);
    ASSERT_GT(plain.accounting().retryCount, 0u);
    EXPECT_EQ(plain.accounting().resumedFromCheckpoint, 0u);

    cfg.checkpoint.intervalComps = 32;
    MealibRuntime ckpt(cfg);
    Operands opsCkpt = fillOperands(ckpt);
    std::vector<Event> evCkpt = submitAll(ckpt, opsCkpt);

    EXPECT_EQ(ckpt.accounting().retryCount,
              plain.accounting().retryCount);
    EXPECT_GT(ckpt.accounting().resumedFromCheckpoint, 0u);
    EXPECT_LT(penalty(evCkpt), penalty(evPlain));
    bool sawResumed = false;
    for (Event &ev : evCkpt)
        sawResumed |= ev.state() == EventState::Resumed;
    EXPECT_TRUE(sawResumed);
    for (unsigned s = 0; s < 2; ++s)
        EXPECT_EQ(0, std::memcmp(opsPlain.y[s], opsCkpt.y[s], kN * 4));
}

// --- degradation-aware scheduling -------------------------------------

TEST(Degradation, SchedulerSteersAwayFromFailedStack)
{
    MealibRuntime rt(baseConfig(4));
    Operands ops = fillOperands(rt);
    rt.failStack(2);
    EXPECT_TRUE(rt.stackFailed(2));
    EXPECT_EQ(rt.healthyStackCount(), 3u);
    // Out of range is a caller bug, as it is for stackHealth().
    EXPECT_THROW(rt.stackFailed(4), FatalError);

    std::vector<Event> events = runWorkload(rt, ops, 4);
    for (Event &ev : events)
        EXPECT_NE(ev.stack(), 2u);
    EXPECT_EQ(rt.queue(2).submitted(), 0u);
}

TEST(Degradation, ExplicitSubmitToFailedStackReroutes)
{
    MealibRuntime rt(baseConfig(2));
    Operands ops = fillOperands(rt);
    rt.failStack(0);

    Event ev = rt.accSubmitOn(planLoopedAxpy(rt, ops.x[0], ops.y[0]), 0);
    EXPECT_EQ(ev.stack(), 1u);
    EXPECT_TRUE(completed(ev.state()));
    EXPECT_EQ(rt.queue(0).submitted(), 0u);
    rt.waitAll();
}

TEST(Degradation, ScriptedFailureFiresAtCommandBoundary)
{
    RuntimeConfig cfg = baseConfig(2);
    cfg.fault.failStack = 0;
    cfg.fault.failStackAfter = 2;
    MealibRuntime rt(cfg);
    Operands ops = fillOperands(rt);

    std::vector<Event> events;
    for (unsigned i = 0; i < 6; ++i)
        events.push_back(
            rt.accSubmitOn(planLoopedAxpy(rt, ops.x[0], ops.y[0]), 0));
    rt.waitAll();

    EXPECT_TRUE(rt.stackFailed(0));
    // Commands 0 and 1 land on stack 0; from command 2 on, the scripted
    // failure has fired and everything reroutes (or is drained) to 1.
    for (unsigned i = 2; i < 6; ++i)
        EXPECT_EQ(events[i].stack(), 1u);
    EXPECT_EQ(rt.queue(0).submitted(), 2u);
}

TEST(Degradation, FailStackDrainsQueuedCommandsToSurvivor)
{
    MealibRuntime rt(baseConfig(2));
    Operands ops = fillOperands(rt);

    // Build a deep backlog on stack 0, then kill it mid-flight.
    std::vector<Event> events;
    for (unsigned i = 0; i < 5; ++i)
        events.push_back(
            rt.accSubmitOn(planLoopedAxpy(rt, ops.x[0], ops.y[0]), 0));
    double before = rt.nowSeconds();
    rt.failStack(0);
    rt.waitAll();

    // The whole backlog was still outstanding (the host track only paid
    // submit costs), so every command re-homed to the survivor.
    EXPECT_GT(rt.accounting().retryCount, 0u);
    for (Event &ev : events) {
        EXPECT_EQ(ev.state(), EventState::Retried);
        EXPECT_EQ(ev.stack(), 1u);
        EXPECT_GT(ev.retries(), 0u);
    }
    // The dead stack's queue never runs past the failure point.
    EXPECT_LE(rt.queue(0).busyUntilSeconds(), before);
    EXPECT_GT(rt.queue(1).busySeconds(), 0.0);
}

TEST(Degradation, DrainedCommandDoesNotWaitOnItsOwnOldSlot)
{
    // The drain's hazard check skips the command being re-homed: its own
    // footprint, still booked until its old finish on the dead stack, is
    // no reason to wait.
    MealibRuntime rt(baseConfig(2));
    Operands ops = fillOperands(rt);
    Event ev = rt.accSubmitOn(planLoopedAxpy(rt, ops.x[0], ops.y[0]), 0);
    const double oldFinish = ev.finishSeconds();
    const double failedAt = rt.nowSeconds();
    ASSERT_LT(failedAt, oldFinish); // still running when the stack dies
    rt.failStack(0);

    EXPECT_EQ(ev.state(), EventState::Retried);
    EXPECT_EQ(ev.stack(), 1u);
    // Stack 1 is idle and nothing else is in flight.
    EXPECT_EQ(ev.startSeconds(), failedAt);
    EXPECT_LT(ev.startSeconds(), oldFinish);
    rt.waitAll();
}

TEST(Degradation, DrainedCommandStillOrdersLaterConflicts)
{
    // A drained command keeps its footprint and takes its new finish
    // time: a later reader of its output on the other survivor waits for
    // the re-homed run, not for the cancelled one.
    MealibRuntime rt(baseConfig(3));
    Operands ops = fillOperands(rt);
    Event writer =
        rt.accSubmitOn(planLoopedAxpy(rt, ops.x[0], ops.y[0]), 0);
    const double oldFinish = writer.finishSeconds();
    // A little host work first, so the re-homed run starts, and ends,
    // later than the cancelled one would have.
    host::KernelProfile work;
    work.name = "host";
    work.flops = 1e4;
    work.bytesRead = 1e4;
    rt.runOnHost(work);
    ASSERT_LT(rt.nowSeconds(), oldFinish);
    rt.failStack(0);
    ASSERT_EQ(writer.state(), EventState::Retried);
    EXPECT_GT(writer.finishSeconds(), oldFinish);

    const unsigned other = writer.stack() == 1 ? 2 : 1;
    // y[other] += 2 * y[0] reads everything the drained command writes.
    Event reader = rt.accSubmitOn(
        planLoopedAxpy(rt, ops.y[0], ops.y[other]), other);
    EXPECT_EQ(reader.stack(), other);
    EXPECT_GE(reader.startSeconds(), writer.finishSeconds());
    rt.waitAll();
}

TEST(Degradation, LastStackFailureFallsBackToHost)
{
    MealibRuntime rt(baseConfig(1));
    Operands ops = fillOperands(rt);
    rt.failStack(0);
    EXPECT_EQ(rt.healthyStackCount(), 0u);

    Event ev = rt.accSubmit(planLoopedAxpy(rt, ops.x[0], ops.y[0]));
    EXPECT_EQ(ev.state(), EventState::FellBack);
    EXPECT_TRUE(ev.stats().fellBack);
    EXPECT_GT(rt.accounting().fallbackSeconds, 0.0);
    EXPECT_EQ(rt.accounting().fallbackCount, 1u);
}

TEST(Degradation, LastStackFailureWithoutFallbackFails)
{
    RuntimeConfig cfg = baseConfig(1);
    cfg.retry.hostFallback = false;
    MealibRuntime rt(cfg);
    Operands ops = fillOperands(rt);
    rt.failStack(0);

    Event ev = rt.accSubmit(planLoopedAxpy(rt, ops.x[0], ops.y[0]));
    EXPECT_EQ(ev.state(), EventState::Failed);
    EXPECT_EQ(ev.status().code(), ErrorCode::DeviceFailed);
}

TEST(Degradation, BusyByStackIsEachQueuesBusyTime)
{
    // Per-stack busy time has one owner, the command queue: a mid-flight
    // cancel and the re-homed drain both show up in accounting() exactly
    // as the queues hold them.
    MealibRuntime rt(baseConfig(3));
    Operands ops = fillOperands(rt);
    for (unsigned round = 0; round < 3; ++round)
        for (unsigned s = 0; s < 3; ++s)
            rt.accSubmitOn(planLoopedAxpy(rt, ops.x[s], ops.y[s]), s);
    rt.failStack(0);
    rt.waitAll();

    EXPECT_GT(rt.accounting().retryCount, 0u); // the drain re-homed work
    EXPECT_GT(rt.queue(0).busySeconds(), 0.0); // ran until it died
    const RuntimeAccounting acct = rt.accounting();
    for (unsigned s = 0; s < 3; ++s)
        EXPECT_EQ(acct.busyByStack.get("stack" + std::to_string(s)),
                  rt.queue(s).busySeconds());
}

// --- recoverable submission errors ------------------------------------

TEST(SubmitErrors, OutOfRangeStackReportsInsteadOfAborting)
{
    MealibRuntime rt(baseConfig(2));
    Operands ops = fillOperands(rt);
    AccPlanHandle h = planLoopedAxpy(rt, ops.x[0], ops.y[0]);

    Event ev = rt.accSubmitOn(h, 99);
    ASSERT_TRUE(ev.valid());
    EXPECT_EQ(ev.state(), EventState::Failed);
    EXPECT_EQ(ev.status().code(), ErrorCode::InvalidArgument);
    EXPECT_FALSE(completed(ev.state()));
    // Nothing was charged and nothing was enqueued.
    EXPECT_EQ(rt.accounting().total().seconds, 0.0);
    EXPECT_EQ(rt.queue(0).submitted() + rt.queue(1).submitted(), 0u);
    EXPECT_EQ(rt.inflightCount(), 0u);

    // The plan is still usable on a valid stack afterwards.
    Event ok = rt.accSubmitOn(h, 0);
    EXPECT_TRUE(completed(ok.state()));
    rt.waitAll();
}

TEST(SubmitErrors, StatusRoundTripsThroughOrThrow)
{
    Status s = Status::error(ErrorCode::Timeout, "watchdog fired");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.toString(), "timeout: watchdog fired");
    try {
        s.orThrow();
        FAIL() << "orThrow did not throw";
    } catch (const MealibError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Timeout);
    }
    EXPECT_EQ(Status().toString(), "ok");
}

} // namespace
} // namespace mealib::runtime
