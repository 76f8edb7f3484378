#include "runtime/scheduler.hh"

#include "common/logging.hh"
#include "runtime/health.hh"

namespace mealib::runtime {

const char *
name(SchedulerPolicy policy)
{
    switch (policy) {
      case SchedulerPolicy::RoundRobin:
        return "round_robin";
      case SchedulerPolicy::Locality:
        return "locality";
      default:
        panic("name: bad scheduler policy");
    }
}

SchedulerPolicy
schedulerPolicy(const std::string &name)
{
    if (name == "round_robin" || name == "rr")
        return SchedulerPolicy::RoundRobin;
    if (name == "locality")
        return SchedulerPolicy::Locality;
    fatal("unknown scheduler policy '", name,
          "' (expected 'round_robin' or 'locality')");
}

unsigned
Scheduler::pick(unsigned homeStack, const StackHealthMonitor &health)
{
    panicIf(health.liveCount() == 0, "pick: every stack is dead");
    const unsigned n = health.numStacks();
    // Quarantine is best-effort steering: prefer selectable stacks
    // while one exists, otherwise pick among every live stack so
    // submissions never strand.
    const bool steer = health.selectableCount() > 0;
    auto pickable = [&](unsigned s) {
        return steer ? health.selectable(s) : health.live(s);
    };
    switch (policy_) {
      case SchedulerPolicy::RoundRobin:
        while (true) {
            unsigned s = next_++ % n;
            if (pickable(s))
                return s;
        }
      case SchedulerPolicy::Locality: {
        unsigned s = homeStack < n ? homeStack : 0;
        // A dead home reroutes to the next live stack upward —
        // deterministic, and adjacent homes spread across survivors.
        for (unsigned i = 0; i < n; ++i) {
            unsigned cand = (s + i) % n;
            if (pickable(cand))
                return cand;
        }
        panic("pick: no live stack found");
      }
      default:
        panic("pick: bad scheduler policy");
    }
}

} // namespace mealib::runtime
