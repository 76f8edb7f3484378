#include "dispatch/policy.hh"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/logging.hh"

namespace mealib::dispatch {

Backend
CrossoverModel::decide(const OpDesc &desc, const CostModel *costs)
{
    if (!desc.accelSupported || costs == nullptr)
        return Backend::Host;
    double host = costs->hostSeconds(desc);
    double accel = costs->accelSeconds(desc);
    return accel < host ? Backend::Accel : Backend::Host;
}

Backend
Calibrated::decide(const OpDesc &desc, const CostModel *costs)
{
    KindState &ks = state_[static_cast<std::size_t>(desc.kind)];
    if (!desc.accelSupported || costs == nullptr)
        return Backend::Host;
    if (ks.calls >= window_)
        return ks.choice;

    ks.calls++;
    ks.hostSeconds += costs->hostSeconds(desc);
    double accel = costs->accelSeconds(desc);
    ks.accelSeconds += std::isfinite(accel)
                           ? accel
                           : std::numeric_limits<double>::max() / 1e6;
    ks.choice = ks.accelSeconds < ks.hostSeconds ? Backend::Accel
                                                 : Backend::Host;
    // During calibration, follow the running tally.
    return ks.choice;
}

bool
Calibrated::sticky(OpKind kind) const
{
    return state_[static_cast<std::size_t>(kind)].calls >= window_;
}

std::unique_ptr<OffloadPolicy>
makePolicy(const std::string &name)
{
    if (name == "host")
        return std::make_unique<HostOnly>();
    if (name == "accel")
        return std::make_unique<AccelAlways>();
    if (name == "crossover")
        return std::make_unique<CrossoverModel>();
    if (name == "calibrated")
        return std::make_unique<Calibrated>();
    return nullptr;
}

std::unique_ptr<OffloadPolicy>
policyFromEnv()
{
    static const std::string policyName = [] {
        const char *env = std::getenv("MEALIB_OFFLOAD_POLICY");
        if (env == nullptr || *env == '\0')
            return std::string("host");
        if (makePolicy(env))
            return std::string(env);
        warn("MEALIB_OFFLOAD_POLICY='", env,
             "' is not one of host, accel, crossover, calibrated; "
             "using host");
        return std::string("host");
    }();
    return makePolicy(policyName);
}

} // namespace mealib::dispatch
