/**
 * @file
 * Cross-layer energy/EDP ledger (docs/MODEL.md).
 *
 * The models produce Cost deltas in many places — host roofline runs,
 * accelerator executions, invocation overheads, fault recovery. An
 * EnergyLedger collects them per run into one observable record: named
 * cost *tracks* whose sum is the run total, an energy-only *component*
 * attribution (DRAM vs. logic vs. NoC vs. link vs. host package), a
 * per-accelerator attribution, named integer counters, and aggregated
 * per-label event statistics. The ledger is the runtime's only cost
 * store: `MealibRuntime::accounting()` is a view assembled from it, and
 * `mealib-run --energy-json` serializes it.
 */

#ifndef MEALIB_COMMON_LEDGER_HH
#define MEALIB_COMMON_LEDGER_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/stats.hh"
#include "common/units.hh"

namespace mealib {

/**
 * Per-run cost ledger with track/component/event views.
 *
 * Internally synchronized: every thread bound to a session posts its
 * runtime commands' costs to that session's ledger (and to the
 * runtime's aggregate one) while other threads read it, so every
 * mutator and every aggregate reader takes an internal mutex. The
 * reference-returning views (tracks()/events()/energyByComponent()/
 * costByAccel()/counters()) are *not* synchronized — read them only
 * when no other thread is posting.
 */
class EnergyLedger
{
  public:
    /** Aggregated statistics of one event label on one track. */
    struct EventStat
    {
        std::uint64_t count = 0;
        Cost cost;
    };

    EnergyLedger() = default;
    EnergyLedger(const EnergyLedger &other);
    EnergyLedger &operator=(const EnergyLedger &other);

    /**
     * Charge @p c to @p track ("host", "accel", "invocation"). The
     * optional @p label aggregates an event record ("track/label") so
     * the JSON shows what the track's total is made of.
     */
    void post(const std::string &track, const Cost &c,
              const std::string &label = "");

    /**
     * Attribute @p joules of already-posted energy to a physical
     * component ("dram", "logic", "noc", "link", "fault", "host",
     * "invocation"). A view of where posted energy went — attribution
     * never changes total().
     */
    void attribute(const std::string &component, double joules);

    /**
     * Attribute @p c of already-posted cost to accelerator @p accel
     * ("DOT", "AXPY", ...): the Fig. 14 per-accelerator view. Like
     * attribute(), it never changes total().
     */
    void attributeAccel(const std::string &accel, const Cost &c);

    /**
     * Bump the named counter @p name ("retries", "flush_bytes_elided",
     * ...) by @p n. A zero bump is a no-op, so a counter that never
     * moved is absent and reads 0. Counters never change total().
     */
    void count(const std::string &name, std::uint64_t n = 1);

    /** Record useful work for the GFLOPS/W summary metric. */
    void addFlops(double flops);

    /** Sum of every track: the run's end-to-end cost. */
    Cost total() const;

    /** One track's accumulated cost (zero if never posted). */
    Cost track(const std::string &name) const;

    /** One counter's value (zero if never bumped). */
    std::uint64_t counter(const std::string &name) const;

    /** One event label's statistics (zero if never recorded). */
    EventStat event(const std::string &label) const;

    const std::map<std::string, Cost> &tracks() const { return tracks_; }
    const Breakdown &energyByComponent() const { return components_; }
    const std::map<std::string, Cost> &costByAccel() const { return byAccel_; }
    const std::map<std::string, std::uint64_t> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, EventStat> &events() const
    {
        return events_;
    }

    double flops() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return flops_;
    }

    /** Energy-delay product of the run total (J*s). */
    double
    edp() const
    {
        return total().edp();
    }

    /** GFLOP/s per watt over the whole run (0 without work/energy). */
    double gflopsPerWatt() const;

    void reset();

    /**
     * Serialize to a JSON object: machine name, total
     * {seconds, joules, watts, edp}, gflops_per_watt, per-track costs,
     * energy_by_component, cost_by_accel, counters, and the aggregated
     * events.
     */
    std::string toJson(const std::string &machine = "") const;

  private:
    Cost totalLocked() const;

    mutable std::mutex mu_;
    std::map<std::string, Cost> tracks_;
    Breakdown components_;
    std::map<std::string, Cost> byAccel_;
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, EventStat> events_;
    double flops_ = 0.0;
};

} // namespace mealib

#endif // MEALIB_COMMON_LEDGER_HH
