#include "common/ledger.hh"

#include <cstdio>
#include <sstream>

namespace mealib {

namespace {

/** Shortest round-trippable spelling of a double for JSON. */
std::string
jnum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
appendCost(std::ostringstream &os, const Cost &c)
{
    os << "{\"seconds\": " << jnum(c.seconds)
       << ", \"joules\": " << jnum(c.joules) << "}";
}

/** Append `"name": {"key": value, ...}` with one line per entry of
 * @p map; @p value spells each mapped value. */
template <typename Map, typename Fn>
void
appendObject(std::ostringstream &os, const char *name, const Map &map,
             Fn value, bool last = false)
{
    os << "  \"" << name << "\": {";
    bool first = true;
    for (const auto &[key, v] : map) {
        os << (first ? "\n" : ",\n") << "    \"" << key << "\": ";
        value(v);
        first = false;
    }
    os << (first ? "" : "\n  ") << (last ? "}\n" : "},\n");
}

} // namespace

EnergyLedger::EnergyLedger(const EnergyLedger &other)
{
    *this = other;
}

EnergyLedger &
EnergyLedger::operator=(const EnergyLedger &other)
{
    if (this == &other)
        return *this;
    std::scoped_lock lock(mu_, other.mu_);
    tracks_ = other.tracks_;
    components_ = other.components_;
    byAccel_ = other.byAccel_;
    counters_ = other.counters_;
    events_ = other.events_;
    flops_ = other.flops_;
    return *this;
}

void
EnergyLedger::post(const std::string &track, const Cost &c,
                   const std::string &label)
{
    std::lock_guard<std::mutex> lock(mu_);
    tracks_[track] += c;
    if (!label.empty()) {
        EventStat &ev = events_[track + "/" + label];
        ev.count++;
        ev.cost += c;
    }
}

void
EnergyLedger::attribute(const std::string &component, double joules)
{
    std::lock_guard<std::mutex> lock(mu_);
    components_.add(component, joules);
}

void
EnergyLedger::attributeAccel(const std::string &accel, const Cost &c)
{
    std::lock_guard<std::mutex> lock(mu_);
    byAccel_[accel] += c;
}

void
EnergyLedger::count(const std::string &name, std::uint64_t n)
{
    if (n == 0)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    counters_[name] += n;
}

void
EnergyLedger::addFlops(double flops)
{
    std::lock_guard<std::mutex> lock(mu_);
    flops_ += flops;
}

Cost
EnergyLedger::totalLocked() const
{
    Cost t;
    for (const auto &[name, c] : tracks_)
        t += c;
    return t;
}

Cost
EnergyLedger::total() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return totalLocked();
}

Cost
EnergyLedger::track(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tracks_.find(name);
    return it == tracks_.end() ? Cost{} : it->second;
}

std::uint64_t
EnergyLedger::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

EnergyLedger::EventStat
EnergyLedger::event(const std::string &label) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = events_.find(label);
    return it == events_.end() ? EventStat{} : it->second;
}

double
EnergyLedger::gflopsPerWatt() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Cost t = totalLocked();
    double w = t.watts();
    if (w <= 0.0 || t.seconds <= 0.0)
        return 0.0;
    return flops_ / t.seconds / 1e9 / w;
}

void
EnergyLedger::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    tracks_.clear();
    components_ = Breakdown{};
    byAccel_.clear();
    counters_.clear();
    events_.clear();
    flops_ = 0.0;
}

std::string
EnergyLedger::toJson(const std::string &machine) const
{
    std::lock_guard<std::mutex> lock(mu_);
    Cost t = totalLocked();
    std::ostringstream os;
    os << "{\n";
    os << "  \"machine\": \"" << machine << "\",\n";
    os << "  \"total\": {\"seconds\": " << jnum(t.seconds)
       << ", \"joules\": " << jnum(t.joules)
       << ", \"watts\": " << jnum(t.watts())
       << ", \"edp\": " << jnum(t.edp()) << "},\n";
    double gfw = (t.watts() > 0.0 && t.seconds > 0.0)
                     ? flops_ / t.seconds / 1e9 / t.watts()
                     : 0.0;
    os << "  \"gflops_per_watt\": " << jnum(gfw) << ",\n";

    auto cost = [&](const Cost &c) { appendCost(os, c); };
    appendObject(os, "tracks", tracks_, cost);
    appendObject(os, "energy_by_component", components_.parts(),
                 [&](double j) { os << jnum(j); });
    appendObject(os, "cost_by_accel", byAccel_, cost);
    appendObject(os, "counters", counters_,
                 [&](std::uint64_t n) { os << n; });
    appendObject(
        os, "events", events_,
        [&](const EventStat &ev) {
            os << "{\"count\": " << ev.count << ", \"cost\": ";
            appendCost(os, ev.cost);
            os << "}";
        },
        /*last=*/true);
    os << "}\n";
    return os.str();
}

} // namespace mealib
