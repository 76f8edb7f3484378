/**
 * @file
 * A full 3D memory stack (or 2D channel group): vaults behind an
 * address-interleaved crossbar, link controllers arbitrating ownership
 * between the host CPU and the memory-side accelerators, and the energy
 * model that turns vault activity into joules.
 */

#ifndef MEALIB_DRAM_STACK_HH
#define MEALIB_DRAM_STACK_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "dram/params.hh"
#include "dram/request.hh"
#include "dram/vault.hh"

namespace mealib::dram {

/** Who currently owns the DRAM arrays (paper Sec. 2.1: never both). */
enum class Owner
{
    None,
    Cpu,
    Accelerator,
};

/** Aggregate result of simulating one trace on a stack. */
struct RunStats
{
    double seconds = 0.0;        //!< completion time of the trace
    double energyJ = 0.0;        //!< DRAM energy (array + TSV + background)
    std::uint64_t bytes = 0;     //!< total traffic
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t activates = 0;
    std::uint64_t refreshes = 0;

    /** Achieved bandwidth in bytes/second. */
    double
    bandwidth() const
    {
        return seconds > 0.0 ? static_cast<double>(bytes) / seconds : 0.0;
    }

    /** Row-buffer hit rate in [0,1]. */
    double
    rowHitRate() const
    {
        std::uint64_t total = rowHits + rowMisses;
        return total ? static_cast<double>(rowHits) /
                           static_cast<double>(total)
                     : 0.0;
    }

    Cost
    cost() const
    {
        return {seconds, energyJ};
    }
};

/**
 * The stack simulator. Simulation is trace-driven: callers build a
 * Trace (possibly a sampled window of a larger operation) and run() it;
 * sampled windows are extrapolated linearly in traffic, which is accurate
 * for the steady-state streaming patterns the accelerators generate.
 */
class Stack
{
  public:
    explicit Stack(const DramParams &params,
                   PagePolicy policy = PagePolicy::Open);

    /** Simulate @p trace to completion from an idle stack. */
    RunStats run(const Trace &trace);

    /**
     * Arbitration at the link controllers. acquire() fails (fatal) if a
     * different owner already holds the stack — the paper's design
     * forbids simultaneous CPU/accelerator operation.
     */
    void acquire(Owner owner);
    void release(Owner owner);
    Owner owner() const { return owner_; }

    const DramParams &params() const { return params_; }

    /** Ideal time lower bound for @p bytes of traffic, seconds. */
    double
    streamTimeLowerBound(std::uint64_t bytes) const
    {
        return static_cast<double>(bytes) /
               params_.peakInternalBandwidth();
    }

    // --- ECC penalty model (fault injection, docs/FAULTS.md) -----------

    /**
     * Latency of one in-line corrected ECC event: the vault re-reads the
     * word and writes the scrubbed line back — a row cycle (tRCD + tCAS
     * + tRP) of stall plus the write-back burst.
     */
    double
    eccCorrectPenaltySeconds() const
    {
        const TimingParams &t = params_.timing;
        return static_cast<double>(t.tRCD + t.tCAS + t.tRP + t.tBURST) *
               t.tCK;
    }

    /**
     * Latency the controller spends before declaring a word
     * uncorrectable: a bounded re-read sequence (the retry happens at
     * the command level, so this only prices the detection).
     */
    double
    eccUncorrectableDetectSeconds() const
    {
        return 4.0 * eccCorrectPenaltySeconds();
    }

  private:
    /** Vault index for a stack-level address. */
    unsigned vaultOf(Addr a) const;

    /** Vault-local address for a stack-level address. */
    Addr localAddr(Addr a) const;

    DramParams params_;
    std::vector<Vault> vaults_;
    Owner owner_ = Owner::None;
};

/** Scoped Stack::acquire: releases on every exit, so a throw while the
 * owner works cannot leave the stack held. */
class StackOwnership
{
  public:
    StackOwnership(Stack &s, Owner o) : stack_(s), owner_(o) { s.acquire(o); }
    ~StackOwnership() { stack_.release(owner_); }
    StackOwnership(const StackOwnership &) = delete;
    StackOwnership &operator=(const StackOwnership &) = delete;

  private:
    Stack &stack_;
    Owner owner_;
};

} // namespace mealib::dram

#endif // MEALIB_DRAM_STACK_HH
