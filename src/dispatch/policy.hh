/**
 * @file
 * Pluggable offload policies (docs/DISPATCH.md).
 *
 * A policy answers one question per call: host or accelerator? The
 * decision is what the paper's Table 2 prices — memory-bounded library
 * calls win on the memory-side accelerators, compute-bounded ones stay
 * on the host — and the four implementations bracket the design space:
 *
 *   HostOnly   never offload (bit-for-bit the legacy behaviour);
 *   AccelAlways offload everything the accelerators support;
 *   CrossoverModel compare the roofline host model against the
 *              accelerator model per call and pick the cheaper side;
 *   Calibrated measure (via the cost models) the first N calls of each
 *              kind, then stick with the winning side.
 */

#ifndef MEALIB_DISPATCH_POLICY_HH
#define MEALIB_DISPATCH_POLICY_HH

#include <array>
#include <memory>
#include <string>

#include "dispatch/opdesc.hh"

namespace mealib::dispatch {

/** Where a call executes. */
enum class Backend : std::uint8_t
{
    Host = 0,
    Accel,
};

/**
 * Cost oracle a policy may consult: modeled seconds for one call on
 * either side. accelSeconds() includes the invocation overhead (cache
 * flush, descriptor copy, START handshake) so small calls correctly
 * price as host-bound. Returns +inf for non-accelerable descriptors.
 */
class CostModel
{
  public:
    virtual ~CostModel() = default;
    virtual double hostSeconds(const OpDesc &desc) const = 0;
    virtual double accelSeconds(const OpDesc &desc) const = 0;
};

/** One offload decision point. */
class OffloadPolicy
{
  public:
    virtual ~OffloadPolicy() = default;
    virtual const char *name() const = 0;

    /**
     * Pick a side for @p desc. @p costs may be null (HostOnly and
     * AccelAlways never consult it); model-driven policies fall back to
     * Host without an oracle.
     */
    virtual Backend decide(const OpDesc &desc, const CostModel *costs) = 0;
};

/** Never offload: today's behaviour, and the default. */
class HostOnly final : public OffloadPolicy
{
  public:
    const char *name() const override { return "host"; }
    Backend
    decide(const OpDesc &, const CostModel *) override
    {
        return Backend::Host;
    }
};

/** Offload every call the accelerators support. */
class AccelAlways final : public OffloadPolicy
{
  public:
    const char *name() const override { return "accel"; }
    Backend
    decide(const OpDesc &desc, const CostModel *) override
    {
        return desc.accelSupported ? Backend::Accel : Backend::Host;
    }
};

/** Roofline crossover: per call, the modeled-cheaper side wins. */
class CrossoverModel final : public OffloadPolicy
{
  public:
    const char *name() const override { return "crossover"; }
    Backend decide(const OpDesc &desc, const CostModel *costs) override;
};

/**
 * First-N-calls measurement, then a sticky per-kind choice: the first
 * @p calibrationCalls calls of each kind are priced on both sides (and
 * executed wherever the running tally favours); afterwards the
 * accumulated totals fix the kind's side for good. Deterministic: the
 * "measurement" is the cost models, not wall-clock.
 */
class Calibrated final : public OffloadPolicy
{
  public:
    explicit Calibrated(unsigned calibrationCalls = 8)
        : window_(calibrationCalls)
    {
    }

    const char *name() const override { return "calibrated"; }
    Backend decide(const OpDesc &desc, const CostModel *costs) override;

    /** Whether @p kind has left the calibration window. */
    bool sticky(OpKind kind) const;

  private:
    struct KindState
    {
        std::uint64_t calls = 0;
        double hostSeconds = 0.0;
        double accelSeconds = 0.0;
        Backend choice = Backend::Host;
    };

    unsigned window_;
    std::array<KindState, static_cast<std::size_t>(OpKind::kCount)>
        state_{};
};

/**
 * Policy by name: "host", "accel", "crossover", "calibrated". Returns
 * null for anything else.
 */
std::unique_ptr<OffloadPolicy> makePolicy(const std::string &name);

/**
 * A fresh instance of the process's default policy. Its name comes
 * from the MEALIB_OFFLOAD_POLICY environment variable, read once per
 * process; HostOnly when unset or empty, and HostOnly with a warning
 * when the value names no policy. Only the name is cached: a policy
 * such as Calibrated keeps per-dispatcher state.
 */
std::unique_ptr<OffloadPolicy> policyFromEnv();

} // namespace mealib::dispatch

#endif // MEALIB_DISPATCH_POLICY_HH
