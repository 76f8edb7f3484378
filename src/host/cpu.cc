#include "host/cpu.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace mealib::host {

CpuModel::CpuModel(const CpuParams &params) : params_(params)
{
    fatalIf(params_.cores == 0, "CPU needs at least one core");
    fatalIf(params_.freq <= 0.0, "CPU clock must be positive");
    fatalIf(params_.memBandwidth <= 0.0, "CPU bandwidth must be positive");
}

double
CpuModel::dramEnergy(double bytesRead, double bytesWritten,
                     double seconds) const
{
    const dram::EnergyParams &e = params_.dram.energy;
    // Streaming estimate: one activation per row's worth of traffic.
    double rows = (bytesRead + bytesWritten) /
                  static_cast<double>(params_.dram.org.rowBytes);
    double dyn = rows * e.activateJ + bytesRead * e.readJPerByte +
                 bytesWritten * e.writeJPerByte +
                 (bytesRead + bytesWritten) * e.tsvJPerByte;
    double bg = e.backgroundWPerVault *
                static_cast<double>(params_.dram.org.numVaults) * seconds;
    return dyn + bg;
}

Cost
CpuModel::run(const KernelProfile &p) const
{
    fatalIf(p.simdEff <= 0.0 || p.simdEff > 1.0,
            "simdEff out of (0,1]: ", p.simdEff);
    fatalIf(p.memEff <= 0.0 || p.memEff > 1.0,
            "memEff out of (0,1]: ", p.memEff);
    fatalIf(p.parallelFraction < 0.0 || p.parallelFraction > 1.0,
            "parallelFraction out of [0,1]");

    // Amdahl-limited multicore speedup.
    double n = static_cast<double>(params_.cores);
    double amdahl =
        1.0 / ((1.0 - p.parallelFraction) + p.parallelFraction / n);

    double compute_rate =
        params_.freq * params_.flopsPerCycle * p.simdEff * amdahl;
    double compute_s = p.flops > 0.0 ? p.flops / compute_rate : 0.0;

    double mem_s = p.bytes() / (params_.memBandwidth * p.memEff);

    double busy_s = std::max(compute_s, mem_s) + p.callOverheads;
    bool mem_bound = mem_s >= compute_s;

    // Busy cores burn less power while memory-stalled.
    double cores_busy = std::min(n, amdahl);
    double core_w = params_.perCoreActiveW * cores_busy *
                    (mem_bound ? params_.stallPowerFactor : 1.0);
    double package_j = (params_.idleW + core_w) * busy_s;

    Cost c;
    c.seconds = busy_s;
    c.joules = package_j + dramEnergy(p.bytesRead, p.bytesWritten, busy_s);
    return c;
}

Cost
CpuModel::flushCost(std::uint64_t dirtyBytes) const
{
    // The runtime picks the cheaper coherence strategy: a clflush sweep
    // over the operand range for small footprints, or a full wbinvd for
    // large ones. Either way at most the LLC's worth of dirty lines is
    // written back.
    double dirty = static_cast<double>(
        std::min<std::uint64_t>(dirtyBytes, params_.llcBytes));
    double wb_s = dirty / params_.memBandwidth;
    const double clflush_s = 5.0e-6 +
        static_cast<double>(dirtyBytes) / 50.0e9 + wb_s;
    const double wbinvd_s = 1.5e-4 + wb_s;
    double s = std::min(clflush_s, wbinvd_s);

    Cost c;
    c.seconds = s;
    c.joules = (params_.idleW + params_.perCoreActiveW) * s +
               dramEnergy(0.0, dirty, s);
    return c;
}

Cost
CpuModel::idleCost(double seconds) const
{
    Cost c;
    c.seconds = seconds;
    c.joules = params_.idleW * seconds +
               dramEnergy(0.0, 0.0, seconds);
    return c;
}

} // namespace mealib::host
