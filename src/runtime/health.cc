#include "runtime/health.hh"

#include <cmath>

#include "common/logging.hh"

namespace mealib::runtime {

namespace {

/** Outcomes a healthy stack's window must hold before its score is
 * trusted. */
constexpr unsigned kMinSamples = 4;

} // namespace

Status
HealthConfig::validate() const
{
    if (std::isnan(quarantineThreshold) || quarantineThreshold < 0.0 ||
        quarantineThreshold > 1.0) {
        return Status::error(
            ErrorCode::InvalidArgument,
            "health config: quarantine threshold " +
                std::to_string(quarantineThreshold) +
                " outside [0, 1] (0 disables the monitor)");
    }
    if (!enabled())
        return Status();
    if (windowCommands == 0) {
        return Status::error(ErrorCode::InvalidArgument,
                             "health config: sliding window needs at "
                             "least one command (windowCommands == 0)");
    }
    if (canaryCommands == 0) {
        return Status::error(ErrorCode::InvalidArgument,
                             "health config: probation needs at least "
                             "one canary (canaryCommands == 0)");
    }
    return Status();
}

StackHealthMonitor::StackHealthMonitor(const HealthConfig &cfg,
                                       unsigned numStacks)
    : cfg_(cfg), slots_(numStacks)
{
    cfg_.validate().orThrow();
}

StackHealth
StackHealthMonitor::state(unsigned stack) const
{
    fatalIf(stack >= slots_.size(), "health state: stack ", stack,
            " out of range (", slots_.size(), " stacks)");
    return slots_[stack].state;
}

bool
StackHealthMonitor::live(unsigned stack) const
{
    return state(stack) != StackHealth::Dead;
}

bool
StackHealthMonitor::selectable(unsigned stack) const
{
    const StackHealth s = state(stack);
    return s == StackHealth::Healthy || s == StackHealth::Probation;
}

unsigned
StackHealthMonitor::liveCount() const
{
    unsigned n = 0;
    for (unsigned st = 0; st < slots_.size(); ++st)
        if (live(st))
            ++n;
    return n;
}

unsigned
StackHealthMonitor::selectableCount() const
{
    unsigned n = 0;
    for (unsigned st = 0; st < slots_.size(); ++st)
        if (selectable(st))
            ++n;
    return n;
}

double
StackHealthMonitor::score(unsigned stack) const
{
    fatalIf(stack >= slots_.size(), "health score: stack ", stack,
            " out of range (", slots_.size(), " stacks)");
    const Slot &s = slots_[stack];
    if (s.window.empty())
        return 0.0;
    return static_cast<double>(s.faults) /
           static_cast<double>(s.window.size());
}

unsigned
StackHealthMonitor::strikes(unsigned stack) const
{
    fatalIf(stack >= slots_.size(), "health strikes: stack ", stack,
            " out of range (", slots_.size(), " stacks)");
    return slots_[stack].strikes;
}

void
StackHealthMonitor::beginCommand(std::uint64_t cmd)
{
    if (!enabled())
        return;
    for (Slot &slot : slots_) {
        if (slot.state == StackHealth::Quarantined &&
            cmd >= slot.quarantinedAt + cfg_.probationAfterCommands) {
            slot.state = StackHealth::Probation;
            slot.cleanCanaries = 0;
        }
    }
}

unsigned
StackHealthMonitor::canaryTarget() const
{
    if (!enabled())
        return kNone;
    for (unsigned st = 0; st < slots_.size(); ++st)
        if (slots_[st].state == StackHealth::Probation)
            return st;
    return kNone;
}

void
StackHealthMonitor::quarantine(Slot &slot, std::uint64_t cmd)
{
    slot.state = StackHealth::Quarantined;
    slot.quarantinedAt = cmd;
    slot.strikes++;
    quarantines_++;
}

StackHealthMonitor::Action
StackHealthMonitor::recordOutcome(unsigned stack, std::uint64_t cmd,
                                  bool faulted)
{
    fatalIf(stack >= slots_.size(), "recordOutcome: stack ", stack,
            " out of range (", slots_.size(), " stacks)");
    if (!enabled())
        return Action::None;
    Slot &slot = slots_[stack];
    if (slot.state == StackHealth::Dead)
        return Action::None;

    slot.window.push_back(faulted);
    if (faulted)
        slot.faults++;
    while (slot.window.size() > cfg_.windowCommands) {
        if (slot.window.front())
            slot.faults--;
        slot.window.pop_front();
    }

    switch (slot.state) {
      case StackHealth::Healthy:
        if (slot.window.size() >= kMinSamples &&
            static_cast<double>(slot.faults) >=
                cfg_.quarantineThreshold *
                    static_cast<double>(slot.window.size())) {
            quarantine(slot, cmd);
            return Action::Quarantine;
        }
        return Action::None;

      case StackHealth::Probation:
        if (faulted) {
            // The canary faulted: back to quarantine, one strike
            // closer to permanent death.
            quarantine(slot, cmd);
            if (cfg_.maxStrikes > 0 && slot.strikes >= cfg_.maxStrikes)
                return Action::Die;
            return Action::Quarantine;
        }
        if (++slot.cleanCanaries >= cfg_.canaryCommands) {
            // Clean streak: the stack has recovered. Forget the flaky
            // window so the next quarantine needs fresh evidence.
            slot.state = StackHealth::Healthy;
            slot.window.clear();
            slot.faults = 0;
            slot.cleanCanaries = 0;
            readmissions_++;
            return Action::Readmit;
        }
        return Action::None;

      case StackHealth::Quarantined:
        // Explicit accSubmitOn() can still land commands here; their
        // outcomes keep feeding the window but cause no transition —
        // the cooldown clock decides when probation starts.
        return Action::None;

      default:
        return Action::None;
    }
}

void
StackHealthMonitor::markDead(unsigned stack)
{
    fatalIf(stack >= slots_.size(), "markDead: stack ", stack,
            " out of range (", slots_.size(), " stacks)");
    slots_[stack].state = StackHealth::Dead;
}

void
StackHealthMonitor::reset()
{
    for (Slot &slot : slots_)
        slot = Slot{};
    quarantines_ = 0;
    readmissions_ = 0;
}

} // namespace mealib::runtime
