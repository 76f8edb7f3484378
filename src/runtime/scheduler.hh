/**
 * @file
 * Plan-placement policies for the asynchronous command-queue engine.
 *
 * When a runtime drives more than one memory stack, every submitted
 * plan must be homed on one of them. The scheduler makes that choice:
 * `round_robin` spreads plans across stacks for throughput regardless
 * of where their operands live, while `locality` homes each plan on
 * the stack that owns its first output operand (the paper's Local
 * Memory Stack rule, Sec. 3.3) so no inter-stack link traffic is paid.
 */

#ifndef MEALIB_RUNTIME_SCHEDULER_HH
#define MEALIB_RUNTIME_SCHEDULER_HH

#include <string>

namespace mealib::runtime {

class StackHealthMonitor;

/** Stack-selection policy for submitted plans. */
enum class SchedulerPolicy
{
    RoundRobin, //!< cycle through stacks, ignoring operand placement
    Locality,   //!< home each plan on its output operand's stack
};

/** Printable policy name ("round_robin" / "locality"). */
const char *name(SchedulerPolicy policy);

/** Parse a policy name; fatal() on anything unrecognized. */
SchedulerPolicy schedulerPolicy(const std::string &name);

/** The stack picker. One instance per runtime; it keeps only the round
 * robin cursor, so reset() restores a freshly constructed picker.
 * Which stacks may take work is the health monitor's to say: a dead
 * stack is never picked — locality reroutes a dead home to the next
 * live stack, round robin skips dead slots — so new submissions steer
 * away from dead hardware (docs/FAULTS.md). A quarantined stack is
 * alive but skipped while any selectable stack remains; with every
 * survivor quarantined at once, pick() falls back to the live set so
 * submissions never strand. */
class Scheduler
{
  public:
    explicit Scheduler(SchedulerPolicy policy) : policy_(policy) {}

    /** Stack the next plan should execute on, never a dead one.
     * @p homeStack is the stack owning the plan's first output operand.
     * Requires health.liveCount() > 0 (the runtime falls back to the
     * host before asking with every stack dead). */
    unsigned pick(unsigned homeStack, const StackHealthMonitor &health);

    /** Rewind the round-robin cursor (used by resetAccounting). */
    void reset() { next_ = 0; }

  private:
    SchedulerPolicy policy_;
    unsigned next_ = 0;
};

} // namespace mealib::runtime

#endif // MEALIB_RUNTIME_SCHEDULER_HH
