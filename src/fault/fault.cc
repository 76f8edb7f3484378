#include "fault/fault.hh"

#include <cmath>

#include "common/logging.hh"

namespace mealib::fault {

const char *
name(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None:
        return "none";
      case FaultKind::EccCorrectable:
        return "ecc_correctable";
      case FaultKind::EccUncorrectable:
        return "ecc_uncorrectable";
      case FaultKind::LinkCrc:
        return "link_crc";
      case FaultKind::CommandHang:
        return "command_hang";
      case FaultKind::ComputeTransient:
        return "compute_transient";
      case FaultKind::StackFailure:
        return "stack_failure";
      case FaultKind::SilentCorruption:
        return "silent_corruption";
      default:
        panic("name: bad fault kind");
    }
}

Status
FaultConfig::validate() const
{
    // A bad rate is a caller error the embedding system must be able to
    // survive (reject the config, keep serving) — report it as a
    // Status instead of killing the process.
    auto check = [](double rate, const char *what) {
        if (std::isnan(rate) || rate < 0.0 || rate > 1.0) {
            return Status::error(
                ErrorCode::InvalidArgument,
                std::string("fault config: ") + what + " rate " +
                    std::to_string(rate) + " outside [0, 1]");
        }
        return Status();
    };
    if (Status s = check(eccCorrectableRate, "ECC-correctable");
        !s.ok())
        return s;
    if (Status s = check(eccUncorrectableRate, "ECC-uncorrectable");
        !s.ok())
        return s;
    if (Status s = check(linkCrcRate, "link-CRC"); !s.ok())
        return s;
    if (Status s = check(hangRate, "hang"); !s.ok())
        return s;
    if (Status s = check(computeTransientRate, "compute-transient");
        !s.ok())
        return s;
    if (Status s = check(silentCorruptionRate, "silent-corruption");
        !s.ok())
        return s;
    return Status();
}

FaultModel::FaultModel(const FaultConfig &cfg) : cfg_(cfg)
{
    cfg_.validate().orThrow();
}

FaultPlan
FaultModel::roll(std::uint64_t command, unsigned attempt) const
{
    FaultPlan plan;
    if (!cfg_.enabled())
        return plan;

    // One private stream per (command, attempt): rolls do not depend on
    // how many other commands were submitted in between, so the same
    // seed injects the same faults regardless of queue interleaving.
    Rng rng(cfg_.seed ^ (command * 0x9e3779b97f4a7c15ull) ^
            (static_cast<std::uint64_t>(attempt) * 0xc2b2ae3d27d4eb4full));

    // Fixed draw order, one draw per source, so outcomes of one source
    // never shift another source's stream.
    const double u_ecc_c = rng.uniform();
    const double u_ecc_u = rng.uniform();
    const double u_crc = rng.uniform();
    const double u_hang = rng.uniform();
    const double u_comp = rng.uniform();
    const double u_frac = rng.uniform();

    if (u_ecc_c < cfg_.eccCorrectableRate)
        plan.eccCorrected = 1;
    if (u_hang < cfg_.hangRate) {
        plan.hang = true;
        return plan;
    }
    // First fatal transient wins; detection point is the same draw so
    // the failure cost is reproducible too.
    if (u_crc < cfg_.linkCrcRate)
        plan.failure = FaultKind::LinkCrc;
    else if (u_ecc_u < cfg_.eccUncorrectableRate)
        plan.failure = FaultKind::EccUncorrectable;
    else if (u_comp < cfg_.computeTransientRate)
        plan.failure = FaultKind::ComputeTransient;
    if (plan.failure != FaultKind::None)
        plan.failFraction = u_frac;

    // Drawn after every pre-existing source so arming silent corruption
    // never shifts the older sources' streams: a (seed, workload) pair
    // injects the same ECC/CRC/hang/transient faults it always did.
    const double u_silent = rng.uniform();
    if (plan.failure == FaultKind::None &&
        u_silent < cfg_.silentCorruptionRate) {
        plan.silent = true;
        plan.failFraction = u_frac; // corruption point, for bookkeeping
    }
    return plan;
}

} // namespace mealib::fault
