/**
 * @file
 * End-to-end operand integrity verification (docs/FAULTS.md).
 *
 * The hardware's own checks — link CRC, vault ECC — catch most
 * corruption, but not all of it: multi-bit flips aliasing to a valid
 * codeword, or corruption on a path the CRC does not cover, arrive
 * looking healthy. The integrity layer closes that gap the way
 * production storage/serving stacks do: the runtime computes a
 * checksum over each transfer's host-side operand intervals before
 * handing them to the accelerators and re-verifies after link
 * crossings and vault reads, so a FaultPlan's silent corruption
 * becomes a *detected* failure the retry ladder can absorb.
 *
 * Verification is not free: every pass streams the operand footprint
 * through the checksum unit. checksumCost() prices one pass from the
 * active machine profile's integrity constants (hwmodel/profile.hh);
 * the runtime posts the result to the EnergyLedger's `integrity` track.
 */

#ifndef MEALIB_FAULT_INTEGRITY_HH
#define MEALIB_FAULT_INTEGRITY_HH

#include <cstddef>
#include <cstdint>

#include "common/status.hh"
#include "common/units.hh"

namespace mealib::fault {

/**
 * FNV-1a 64-bit running checksum. Not cryptographic — it stands in for
 * the CRC32C/T10-DIF style end-to-end checksums real systems use, and
 * is deterministic across platforms so functional verification results
 * are bit-reproducible.
 */
class Checksum
{
  public:
    /** Fold @p n bytes at @p data into the running value. */
    void update(const void *data, std::size_t n);

    /** Current checksum value. */
    std::uint64_t value() const { return state_; }

  private:
    static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
    static constexpr std::uint64_t kPrime = 0x100000001b3ull;
    std::uint64_t state_ = kOffsetBasis;
};

/** Per-transfer operand verification knobs (resolved against the
 * active machine profile by RuntimeConfig's constructor). */
struct IntegrityConfig
{
    /** Verify operand intervals end-to-end: source checksums computed
     * on the host before the transfer, re-checked after link crossings
     * and vault reads. Off by default — verification costs nothing and
     * detects nothing, exactly the pre-existing behavior. */
    bool verifyTransfers = false;

    /** Modeled checksum throughput, seconds per byte streamed. */
    double checksumSecondsPerByte = 0.0;

    /** Modeled checksum energy, joules per byte streamed. */
    double checksumJPerByte = 0.0;

    bool enabled() const { return verifyTransfers; }

    /** InvalidArgument on negative or non-finite pricing. */
    Status validate() const;
};

/** Modeled cost of one verification pass over @p bytes bytes. */
Cost checksumCost(const IntegrityConfig &cfg, double bytes);

} // namespace mealib::fault

#endif // MEALIB_FAULT_INTEGRITY_HH
