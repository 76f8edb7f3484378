/**
 * @file
 * Per-stack health monitoring: quarantine and probationary re-admission
 * (docs/FAULTS.md).
 *
 * PR 2's failure handling was binary — a stack is healthy until
 * failStack() kills it forever. Real stacks are flakier than that: a
 * marginal SerDes lane or a hot vault produces bursts of transient
 * faults, and the right response is to steer work away *temporarily*,
 * keep probing, and re-admit the stack once it behaves again.
 *
 * StackHealthMonitor scores each stack over a sliding window of its
 * most recent command outcomes. When the faulted fraction crosses the
 * quarantine threshold the stack is quarantined: the scheduler steers
 * both policies around it. After a cooldown (measured in global
 * submissions, so replay is deterministic) the stack enters probation
 * and the runtime routes canary commands to it; a clean streak
 * re-admits it, another fault re-quarantines it and costs a strike.
 * Too many strikes and the stack is declared dead for good (the
 * monitor reports Action::Die; the runtime calls failStack()).
 *
 *   Healthy ──score ≥ threshold──► Quarantined
 *      ▲                               │ cooldown elapses
 *      │ canary streak clean           ▼
 *      └────────────────────────── Probation
 *                                      │ canary faults
 *                                      ▼
 *                     Quarantined (strike++) ──strikes ≥ max──► Dead
 *
 * Everything is a pure function of the submission stream, so a given
 * (seed, config, workload) triple quarantines and re-admits the same
 * stacks at the same points on every run.
 *
 * The monitor is the runtime's only record of stack lifecycle: a dead
 * stack is failed, and the scheduler picks among live() stacks,
 * preferring selectable() ones.
 */

#ifndef MEALIB_RUNTIME_HEALTH_HH
#define MEALIB_RUNTIME_HEALTH_HH

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "common/status.hh"

namespace mealib::runtime {

/** Lifecycle state of one stack in the health monitor. */
enum class StackHealth
{
    Healthy = 0, //!< full member of the scheduling set
    Quarantined, //!< steered around; waiting out the cooldown
    Probation,   //!< receiving canary commands, one fault from strike
    Dead,        //!< permanently failed (scripted or struck out)
};

/** Quarantine/re-admission policy. Disabled by default. */
struct HealthConfig
{
    /** Faulted fraction of the window that quarantines a stack;
     * 0 disables the monitor entirely. */
    double quarantineThreshold = 0.0;

    /** Sliding window length, in commands resolved on the stack. A
     * healthy stack is judged once its window holds at least 4
     * outcomes, so no single unlucky first command quarantines it. */
    unsigned windowCommands = 16;

    /** Cooldown: global submissions between quarantine entry and
     * probation. */
    unsigned probationAfterCommands = 32;

    /** Clean canary commands in a row that re-admit a probation
     * stack. */
    unsigned canaryCommands = 2;

    /** Quarantine strikes before the stack is declared permanently
     * dead; 0 = never struck out. */
    unsigned maxStrikes = 0;

    bool enabled() const { return quarantineThreshold > 0.0; }

    /** InvalidArgument on a threshold outside (0, 1], a zero window,
     * or a zero canary streak. */
    Status validate() const;
};

/** The per-stack sliding-window fault scorer. */
class StackHealthMonitor
{
  public:
    /** The transition recordOutcome() made. */
    enum class Action
    {
        None = 0,
        Quarantine, //!< left the scheduling set
        Readmit,    //!< back in the scheduling set
        Die,        //!< strikes exhausted: the runtime fails the stack
    };

    /** Sentinel for "no stack" (canaryTarget with nothing on probation). */
    static constexpr unsigned kNone =
        std::numeric_limits<unsigned>::max();

    StackHealthMonitor(const HealthConfig &cfg, unsigned numStacks);

    bool enabled() const { return cfg_.enabled(); }
    const HealthConfig &config() const { return cfg_; }

    /** Current lifecycle state of @p stack. */
    StackHealth state(unsigned stack) const;

    /** Whether @p stack can take work at all (not dead). */
    bool live(unsigned stack) const;

    /** Whether @p stack is in the scheduling set (healthy or on
     * probation; quarantined and dead stacks are not). */
    bool selectable(unsigned stack) const;

    /** Stacks that are live(). */
    unsigned liveCount() const;

    /** Stacks that are selectable(). */
    unsigned selectableCount() const;

    unsigned numStacks() const { return static_cast<unsigned>(slots_.size()); }

    /** Faulted fraction of @p stack's current window (0 when empty). */
    double score(unsigned stack) const;

    /** Quarantine strikes charged against @p stack so far. */
    unsigned strikes(unsigned stack) const;

    /** Advance the monitor to global submission @p cmd: quarantined
     * stacks whose cooldown has elapsed move to probation. */
    void beginCommand(std::uint64_t cmd);

    /** Probation stack that should receive the next canary command,
     * or kNone. Lowest-numbered first for determinism. */
    unsigned canaryTarget() const;

    /**
     * Record one resolved command on @p stack at global submission
     * @p cmd. @p faulted means the command needed the recovery ladder:
     * retries, a detected corruption, or outright failure (in-line
     * corrected ECC does not count — it is invisible latency, not a
     * health signal). @return the action the runtime must take.
     */
    Action recordOutcome(unsigned stack, std::uint64_t cmd, bool faulted);

    /** Mark @p stack permanently dead (scripted failure, failStack). */
    void markDead(unsigned stack);

    /** Total healthy→quarantined transitions (accounting). */
    std::uint64_t quarantines() const { return quarantines_; }

    /** Total probation→healthy re-admissions (accounting). */
    std::uint64_t readmissions() const { return readmissions_; }

    /** Restore construction-time state (resetAccounting). */
    void reset();

  private:
    struct Slot
    {
        StackHealth state = StackHealth::Healthy;
        std::deque<bool> window;        //!< true = faulted
        unsigned faults = 0;            //!< faulted entries in window
        unsigned strikes = 0;
        std::uint64_t quarantinedAt = 0; //!< cmd of quarantine entry
        unsigned cleanCanaries = 0;      //!< streak while on probation
    };

    void quarantine(Slot &slot, std::uint64_t cmd);

    HealthConfig cfg_;
    std::vector<Slot> slots_;
    std::uint64_t quarantines_ = 0;
    std::uint64_t readmissions_ = 0;
};

} // namespace mealib::runtime

#endif // MEALIB_RUNTIME_HEALTH_HH
