/**
 * @file
 * Cost models behind the model-driven offload policies.
 *
 * The per-operation host execution profiles (formerly private to
 * src/mealib/platform.cc) live here so the dispatcher, the eval layer
 * and the benches price host execution identically. RooflineCostModel
 * combines the Haswell roofline CPU model with the MEALib accelerator
 * model (HMC stack) and adds the invocation overhead — cache flush of
 * the input footprint plus the descriptor/START handshake — so the
 * crossover policy reproduces the paper's shape: small calls stay on
 * the host, large memory-bounded calls offload.
 */

#ifndef MEALIB_DISPATCH_MODELS_HH
#define MEALIB_DISPATCH_MODELS_HH

#include <array>
#include <compare>
#include <map>
#include <mutex>

#include "dispatch/policy.hh"
#include "host/cpu.hh"
#include "hwmodel/profile.hh"

namespace mealib::dispatch {

/**
 * Full host execution profile of @p call iterated over @p loop on
 * machine @p m — the record host::CpuModel::run() prices.
 */
host::KernelProfile hostKernelProfile(const hwmodel::MachineProfile &m,
                                      const accel::OpCall &call,
                                      const accel::LoopSpec &loop);

/**
 * The dispatcher's default cost oracle: Haswell roofline for the host
 * side, the MEALib accelerator model (HMC stack, Table-3 MEALib column)
 * plus invocation overhead for the accelerator side. Estimates are
 * memoized per call shape — policies price the same kernel in a loop
 * thousands of times (CG) and the accelerator model simulates a DRAM
 * trace per estimate.
 */
class RooflineCostModel final : public CostModel
{
  public:
    /** Price against the active machine profile (MEALIB_MACHINE). */
    RooflineCostModel();

    /** Price against an explicit machine profile. @p machine must
     * outlive the model (registry profiles always do). */
    explicit RooflineCostModel(const hwmodel::MachineProfile &machine);

    double hostSeconds(const OpDesc &desc) const override;
    double accelSeconds(const OpDesc &desc) const override;

    /**
     * Amortize the per-invocation overhead (flush + handshake) over a
     * fusion window of @p window calls: with the runtime backend fusing
     * adjacent same-stack calls into one descriptor program, only one
     * invocation is paid per window. The accel memo is keyed by the
     * window, so estimates cached under other windows survive a toggle
     * and are reused when that window returns. @p window < 1 is treated
     * as 1 (no fusion — the exact legacy pricing).
     */
    void setFusionWindow(unsigned window);

    const hwmodel::MachineProfile &machine() const { return machine_; }

    /** Fixed per-invocation accelerator overhead (descriptor copy +
     * START handshake), excluding the size-dependent cache flush. */
    static constexpr double kHandshakeSeconds =
        hwmodel::kHandshakeSeconds;

  private:
    /** Every field an estimate reads, plus the fusion window. The
     * machine is per-instance, so it needs no key slot. */
    struct Key
    {
        std::uint8_t kind;
        std::uint64_t n, m, k;
        bool complexData;
        std::uint32_t resampleKind;
        std::array<std::uint32_t, accel::kMaxLoopDims> dims;
        std::uint32_t moving; //!< bit 4*operand+dim: that stride != 0
        double flopsOverride, bytesOverride;
        unsigned window;

        auto operator<=>(const Key &) const = default;
    };
    static Key keyOf(const OpDesc &desc, unsigned window);

    const hwmodel::MachineProfile &machine_;
    host::CpuModel cpu_;
    unsigned fusionWindow_ = 1;
    mutable std::mutex mu_;
    mutable std::map<Key, double> hostCache_;
    mutable std::map<Key, double> accelCache_;
};

} // namespace mealib::dispatch

#endif // MEALIB_DISPATCH_MODELS_HH
