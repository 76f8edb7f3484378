/**
 * @file
 * Per-call dispatch telemetry (docs/DISPATCH.md): how many calls each
 * op kind made, where the policy sent them, how many offloads fell back
 * to the host and why, and how many bytes moved on each side. Exported
 * as JSON by `mealib-run --dispatch-json` and the dispatch bench.
 */

#ifndef MEALIB_DISPATCH_TELEMETRY_HH
#define MEALIB_DISPATCH_TELEMETRY_HH

#include <array>
#include <cstdint>
#include <string>

#include "dispatch/opdesc.hh"

namespace mealib::dispatch {

/** Why an accel-decided call ended up executing on the host anyway. */
enum class FallbackReason : std::uint8_t
{
    None = 0,
    NoBackend,    //!< no accelerator backend attached
    Unsupported,  //!< kind/argument combination has no COMP mapping
    Unmappable,   //!< operands not translatable; the backend declined
    BackendError, //!< submission or execution returned an error
    kCount,
};

/** Printable reason name ("no_backend", ...). */
const char *name(FallbackReason reason);

/** Counters for one op kind. */
struct OpStats
{
    std::uint64_t calls = 0;
    std::uint64_t hostDecisions = 0;  //!< policy said host
    std::uint64_t accelDecisions = 0; //!< policy said accelerator
    std::uint64_t offloaded = 0;      //!< actually ran on a backend
    std::uint64_t fallbacks = 0;      //!< accel decision, host execution
    double flops = 0.0;
    double bytes = 0.0;          //!< modeled DRAM traffic, all calls
    double bytesOffloaded = 0.0; //!< subset executed on the backend
    std::array<std::uint64_t,
               static_cast<std::size_t>(FallbackReason::kCount)>
        fallbackBy{};
};

/** Aggregated dispatcher telemetry; snapshot() returns one of these. */
struct DispatchStats
{
    std::array<OpStats, static_cast<std::size_t>(OpKind::kCount)> byKind{};

    OpStats &
    of(OpKind kind)
    {
        return byKind[static_cast<std::size_t>(kind)];
    }

    const OpStats &
    of(OpKind kind) const
    {
        return byKind[static_cast<std::size_t>(kind)];
    }

    std::uint64_t totalCalls() const;
    std::uint64_t totalOffloaded() const;
    std::uint64_t totalAccelDecisions() const;
    double totalBytes() const;
    double totalBytesOffloaded() const;

    /** Fraction of calls the policy sent to the accelerators. */
    double offloadRatio() const;

    /** Fraction of modeled traffic executed on the backend. */
    double byteOffloadRatio() const;

    /**
     * JSON document: policy name, totals, and one record per op kind
     * that made at least one call (schema in docs/DISPATCH.md).
     */
    std::string toJson(const std::string &policyName) const;
};

} // namespace mealib::dispatch

#endif // MEALIB_DISPATCH_TELEMETRY_HH
