/**
 * @file
 * Completion events and hazard intervals of the asynchronous
 * command-queue engine.
 *
 * Every accSubmit() returns an Event. The runtime derives, from the
 * plan's Parameter-Region operands, the physical byte intervals the
 * descriptor will read and write (conservatively expanded over LOOP
 * strides); overlapping intervals between in-flight commands induce
 * RAW/WAR/WAW dependencies that serialize the dependent command after
 * its producers on the simulated timeline. Event::wait() advances the
 * host track to the command's DONE time (the Listing-2 poll, made
 * non-blocking at submit time).
 */

#ifndef MEALIB_RUNTIME_EVENT_HH
#define MEALIB_RUNTIME_EVENT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "accel/descriptor.hh"
#include "accel/layer.hh"
#include "common/status.hh"
#include "common/units.hh"

namespace mealib::runtime {

class MealibRuntime;

/**
 * Terminal states of a submitted command (docs/FAULTS.md). The runtime
 * resolves the state at submit time on the simulated timeline:
 *
 *   DONE       clean completion on the scheduled stack;
 *   RETRIED    completed on an accelerator after >= 1 retried attempt
 *              (transient faults absorbed by the retry policy);
 *   RESUMED    completed on an accelerator after resuming from a
 *              committed checkpoint (mid-span retry, or a drain to a
 *              surviving stack after stack death) instead of
 *              re-executing from iteration zero;
 *   FELL_BACK  completed, but on the host via the minimkl fallback path
 *              (retry budget exhausted, watchdog fired, or every stack
 *              failed);
 *   TIMED_OUT  the watchdog fired and host fallback was disabled — the
 *              command did not complete;
 *   FAILED     permanent failure with fallback disabled, or an invalid
 *              submission (e.g. a stack index out of range).
 */
enum class EventState
{
    Pending = 0,
    Done,
    Retried,
    Resumed,
    FellBack,
    TimedOut,
    Failed,
};

/** Printable state name ("done", "fell_back", ...). */
const char *name(EventState state);

/** @return whether @p state means the command's results are usable. */
bool completed(EventState state);

/** Half-open physical byte range touched by a descriptor operand. */
struct AccessInterval
{
    Addr lo = 0;        //!< first byte touched
    Addr hi = 0;        //!< one past the last byte touched
    bool write = false; //!< written (out operand) vs read

    bool
    overlaps(const AccessInterval &o) const
    {
        return lo < o.hi && o.lo < hi;
    }

    /** Two accesses conflict when they overlap and either writes. */
    bool
    conflictsWith(const AccessInterval &o) const
    {
        return (write || o.write) && overlaps(o);
    }
};

/**
 * Conservative access intervals of @p prog: one interval per COMP
 * operand, expanded over the covering LOOP's strides (min/max effective
 * address plus the operand's per-iteration footprint).
 */
std::vector<AccessInterval>
accessIntervals(const accel::DescriptorProgram &prog);

/**
 * Whether every COMP in @p prog can be re-executed from scratch (or
 * from a checkpoint) without changing its results: none reads its own
 * output (accel::readsOutput) and no write operand overlaps a read
 * operand (in-place updates). The dispatch layer's dispatch::rerunSafe
 * applies the same rule to host operands; the checkpoint layer only
 * journals rerunSafe programs.
 */
bool rerunSafe(const accel::DescriptorProgram &prog);

namespace detail {

/** Shared completion record of one submitted command. */
struct EventState
{
    std::uint64_t id = 0;       //!< submission order, 1-based
    unsigned stack = 0;         //!< stack the command executed on
    double submitSeconds = 0.0; //!< host-track time of the submit
    double startSeconds = 0.0;  //!< accelerator start (hazards resolved)
    double finishSeconds = 0.0; //!< accelerator DONE time
    std::uint64_t epoch = 0;    //!< runtime accounting epoch at submit
    bool waited = false;        //!< host has observed DONE
    accel::ExecStats stats;     //!< full cost of this invocation
    /** Terminal state (qualified: the injected class name shadows the
     * enum inside this struct). */
    mealib::runtime::EventState state =
        mealib::runtime::EventState::Pending;
    Status status;              //!< non-ok for TimedOut/Failed
    bool onHost = false;        //!< completed via host fallback
    double spanSeconds = 0.0;   //!< accelerator occupancy (for drains)
    std::vector<AccessInterval> intervals; //!< hazard footprint copy

    // --- checkpoint/replay (docs/FAULTS.md) ----------------------------
    std::uint64_t command = 0;  //!< global submission index
    /** Span fraction between committed checkpoints (0 = program is not
     * checkpointed: rerun-unsafe, or checkpointing disabled). */
    double checkpointStep = 0.0;
};

} // namespace detail

/**
 * Handle to one submitted command. Copyable; all copies share the
 * completion record. A default-constructed Event is invalid.
 */
class Event
{
  public:
    Event() = default;

    /** Block the host track until DONE. @return the invocation stats. */
    const accel::ExecStats &wait();

    bool valid() const { return state_ != nullptr; }

    /** Terminal state of the command (see EventState). */
    EventState state() const;

    /** Error detail: ok() unless state() is TIMED_OUT or FAILED. */
    const Status &status() const;

    /** Failed attempts absorbed by retry before completion. */
    unsigned retries() const;

    /** Stack the command was scheduled on. */
    unsigned stack() const;

    /** Accelerator-track start time, seconds on the simulated clock. */
    double startSeconds() const;

    /** Accelerator-track completion time on the simulated clock. */
    double finishSeconds() const;

    /** Invocation stats (valid as soon as the submit returns). */
    const accel::ExecStats &stats() const;

  private:
    friend class MealibRuntime;
    Event(MealibRuntime *rt, std::shared_ptr<detail::EventState> state)
        : rt_(rt), state_(std::move(state))
    {
    }

    MealibRuntime *rt_ = nullptr;
    std::shared_ptr<detail::EventState> state_;
};

} // namespace mealib::runtime

#endif // MEALIB_RUNTIME_EVENT_HH
