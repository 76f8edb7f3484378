/**
 * @file
 * Analytical host-processor model.
 *
 * The paper's methodology (Sec. 4) measures the host natively and
 * simulates only the accelerated stack. Without the authors' testbed we
 * replace the measurement with a roofline execution model plus a
 * per-component power model: a kernel is summarized as a KernelProfile
 * (flops, traffic, efficiency factors) and the model returns time and
 * energy. Parameters for the two hosts of Table 3 (Haswell i7-4770K and
 * Xeon Phi 5110P) are provided as presets.
 */

#ifndef MEALIB_HOST_CPU_HH
#define MEALIB_HOST_CPU_HH

#include <cstdint>
#include <string>

#include "common/units.hh"
#include "dram/params.hh"

namespace mealib::host {

/** Machine-independent summary of one kernel execution on the host. */
struct KernelProfile
{
    std::string name;
    double flops = 0.0;            //!< floating-point operations
    double bytesRead = 0.0;        //!< DRAM read traffic
    double bytesWritten = 0.0;     //!< DRAM write traffic
    double simdEff = 1.0;          //!< fraction of peak issue achieved
    double parallelFraction = 1.0; //!< Amdahl parallel fraction
    double memEff = 0.8;           //!< fraction of peak bandwidth achieved
    double callOverheads = 0.0;    //!< per-call fixed time (launch etc.), s

    double
    bytes() const
    {
        return bytesRead + bytesWritten;
    }
};

/** Host processor description. */
struct CpuParams
{
    std::string name;
    unsigned cores = 0;
    double freq = 0.0;            //!< core clock, Hz
    double flopsPerCycle = 0.0;   //!< per core, single precision
    double memBandwidth = 0.0;    //!< peak DRAM bandwidth, B/s
    double idleW = 0.0;           //!< package power at idle
    double perCoreActiveW = 0.0;  //!< extra power per busy core
    double stallPowerFactor = 0.6;//!< busy-core power while memory-stalled
    std::uint64_t llcBytes = 0;   //!< last-level cache capacity
    dram::DramParams dram;        //!< attached memory (for energy)

    bool operator==(const CpuParams &) const = default;

    /** Peak single-precision throughput, flop/s. */
    double
    peakFlops() const
    {
        return static_cast<double>(cores) * freq * flopsPerCycle;
    }
};

/** Roofline + power model for a host processor. */
class CpuModel
{
  public:
    explicit CpuModel(const CpuParams &params);

    /** Time/energy of executing @p profile once. */
    Cost run(const KernelProfile &profile) const;

    /**
     * Cost of flushing @p dirtyBytes of cached data back to DRAM before
     * handing the arrays to memory-side accelerators (the wbinvd step of
     * mealib_acc_execute). Writes back at peak bandwidth plus a fixed
     * instruction latency; also invalidates, so later host reads re-fetch.
     */
    Cost flushCost(std::uint64_t dirtyBytes) const;

    /** Package+DRAM power while idling for @p seconds. */
    Cost idleCost(double seconds) const;

    const CpuParams &params() const { return params_; }

  private:
    /** DRAM energy for a traffic summary (analytic, no cycle sim). */
    double dramEnergy(double bytesRead, double bytesWritten,
                      double seconds) const;

    CpuParams params_;
};

} // namespace mealib::host

#endif // MEALIB_HOST_CPU_HH
