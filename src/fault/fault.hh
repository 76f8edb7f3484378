/**
 * @file
 * Deterministic fault injection for the MEALib runtime.
 *
 * The fault layer makes hardware misbehavior a first-class, reproducible
 * simulator input: vault ECC errors in the DRAM stacks (correctable and
 * uncorrectable), CRC errors on the inter-stack SerDes links, accelerator
 * command hangs and transient compute faults, and scripted permanent
 * stack failures. Every decision is pre-rolled from a seed and the
 * command's global submission index, so a given (seed, config, workload)
 * triple always injects exactly the same faults — failure scenarios are
 * regression-testable, and availability/EDP trade-offs under failure can
 * be swept like any other design parameter (bench/ablation_faults).
 *
 * The model is split the same way the rest of the simulator is:
 * FaultModel decides *what* goes wrong (and records a FaultEvent log);
 * the runtime decides what it *costs* (retry backoff, watchdog timeouts,
 * host fallback — docs/FAULTS.md) using penalty helpers owned by the
 * component models (dram::Stack ECC penalties, noc::Mesh CRC replay).
 */

#ifndef MEALIB_FAULT_FAULT_HH
#define MEALIB_FAULT_FAULT_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "common/status.hh"

namespace mealib::fault {

/** What kind of hardware fault was injected. */
enum class FaultKind
{
    None = 0,
    EccCorrectable,   //!< vault ECC corrected a flipped bit (latency only)
    EccUncorrectable, //!< vault ECC detected an unrecoverable word
    LinkCrc,          //!< inter-stack SerDes packet failed its CRC
    CommandHang,      //!< accelerator command never raises DONE
    ComputeTransient, //!< PE produced a detectably wrong result
    StackFailure,     //!< permanent: the whole stack stops answering
    SilentCorruption, //!< corruption that escaped link CRC / vault ECC
};

/** Printable fault name ("ecc_correctable", "link_crc", ...). */
const char *name(FaultKind kind);

/** Sentinel for "no scripted stack failure". */
inline constexpr unsigned kNoStack =
    std::numeric_limits<unsigned>::max();

/** Injection rates and scripted failures. All-zero = disabled. */
struct FaultConfig
{
    std::uint64_t seed = 0; //!< base seed for every roll

    // Per-attempt probabilities, each rolled independently.
    double eccCorrectableRate = 0.0;   //!< corrected ECC hit
    double eccUncorrectableRate = 0.0; //!< uncorrectable ECC word
    double linkCrcRate = 0.0;          //!< SerDes CRC failure
    double hangRate = 0.0;             //!< command hang (watchdog case)
    double computeTransientRate = 0.0; //!< transient PE fault
    /** Corruption that escapes both the link CRC and the vault ECC:
     * invisible to the hardware's own checks, detectable only by the
     * runtime's end-to-end operand verification (docs/FAULTS.md). */
    double silentCorruptionRate = 0.0;

    /** Scripted permanent failure: stack @c failStack dies right before
     * global command @c failStackAfter is submitted (kNoStack = never).
     * Scripting the death point keeps whole-stack-loss scenarios
     * deterministic across runs and after resetAccounting(). */
    unsigned failStack = kNoStack;
    std::uint64_t failStackAfter = 0;

    /** @return whether any fault source is active. */
    bool
    enabled() const
    {
        return eccCorrectableRate > 0.0 || eccUncorrectableRate > 0.0 ||
               linkCrcRate > 0.0 || hangRate > 0.0 ||
               computeTransientRate > 0.0 ||
               silentCorruptionRate > 0.0 || failStack != kNoStack;
    }

    /** InvalidArgument if any rate is outside [0, 1] or not finite. */
    Status validate() const;
};

/** One injected fault, as recorded in the model's history log. */
struct FaultEvent
{
    FaultKind kind = FaultKind::None;
    unsigned stack = 0;           //!< stack the command was placed on
    std::uint64_t command = 0;    //!< global submission index
    unsigned attempt = 0;         //!< 0 = first try, 1.. = retries
};

/**
 * Pre-rolled outcome of one execution attempt of one command: how many
 * correctable ECC hits slow it down, whether it hangs, and — if it
 * fails — which transient fault killed it and how far through the
 * command's span the failure was detected.
 */
struct FaultPlan
{
    unsigned eccCorrected = 0;         //!< corrected hits (latency only)
    bool hang = false;                 //!< DONE never arrives
    FaultKind failure = FaultKind::None; //!< fatal transient, or None
    double failFraction = 0.0;         //!< span fraction before detection
    /** Corruption neither the CRC nor the ECC noticed: the attempt
     * "succeeds" as far as the hardware can tell. Only end-to-end
     * operand verification turns this into a detected failure. */
    bool silent = false;

    /** @return whether the attempt completes as far as the hardware's
     * own checks can tell (a silent corruption still "succeeds"). */
    bool
    succeeds() const
    {
        return !hang && failure == FaultKind::None;
    }
};

/**
 * The seeded fault injector. Stateless across commands except for the
 * history log: every roll is a pure function of (seed, command index,
 * attempt), so injection is independent of scheduling order and
 * bit-reproducible.
 */
class FaultModel
{
  public:
    explicit FaultModel(const FaultConfig &cfg);

    bool enabled() const { return cfg_.enabled(); }
    const FaultConfig &config() const { return cfg_; }

    /** Roll attempt @p attempt of global command @p command. */
    FaultPlan roll(std::uint64_t command, unsigned attempt) const;

    /** Append one acted-on fault to the history log. */
    void record(const FaultEvent &event) { history_.push_back(event); }

    /** Every fault the runtime acted on, in injection order. */
    const std::vector<FaultEvent> &history() const { return history_; }

    /** Drop the history log (resetAccounting replays from scratch). */
    void reset() { history_.clear(); }

  private:
    FaultConfig cfg_;
    std::vector<FaultEvent> history_;
};

} // namespace mealib::fault

#endif // MEALIB_FAULT_FAULT_HH
