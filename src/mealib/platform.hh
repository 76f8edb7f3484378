/**
 * @file
 * Platform comparison layer for the paper's evaluation (Tables 2/3,
 * Figs. 9/10): run the same Table-1 operation on the five platforms and
 * report time, energy, GFLOPS and GFLOPS/W.
 *
 * Host platforms (Haswell MKL, Xeon Phi MKL) go through the roofline
 * CPU model with per-operation efficiency profiles; accelerated
 * platforms (PSAS, MSAS, MEALib) go through the accelerator models with
 * the memory device of Table 3 swapped in.
 */

#ifndef MEALIB_MEALIB_PLATFORM_HH
#define MEALIB_MEALIB_PLATFORM_HH

#include <string>

#include "accel/model.hh"
#include "accel/ops.hh"
#include "common/units.hh"
#include "host/cpu.hh"

namespace mealib::eval {

/** The five platforms of Table 3. */
enum class Platform
{
    HaswellMkl, //!< Intel i7-4770K running MiniMKL (the baseline)
    XeonPhiMkl, //!< Xeon Phi 5110P running MiniMKL
    Psas,       //!< processor-side accelerators, host DDR3 (25.6 GB/s)
    Msas,       //!< 2D memory-side accelerators (102.4 GB/s)
    MeaLib,     //!< 3D memory-side accelerators (510 GB/s)
};

/** Printable platform name. */
const char *name(Platform p);

/** One evaluated operation on one platform. */
struct OpResult
{
    Cost cost;
    double flops = 0.0;
    double bytes = 0.0;

    double
    gflops() const
    {
        return cost.seconds > 0.0 ? flops / cost.seconds / 1e9 : 0.0;
    }

    /** GB/s, the metric for RESHP (paper footnote 3). */
    double
    gbps() const
    {
        return cost.seconds > 0.0 ? bytes / cost.seconds / 1e9 : 0.0;
    }

    /** Performance metric: GFLOPS, or GB/s for flop-free operations. */
    double
    perf() const
    {
        return flops > 0.0 ? gflops() : gbps();
    }

    /** Efficiency metric: perf per watt. */
    double
    perfPerWatt() const
    {
        double w = cost.watts();
        return w > 0.0 ? perf() / w : 0.0;
    }
};

/** A Table-2 workload: one op (optionally looped) plus a description. */
struct Workload
{
    accel::OpCall call;
    accel::LoopSpec loop;
    std::string desc;
};

/**
 * The Table 2 data set for @p kind, linearly scaled by @p scale
 * (scale = 1 reproduces the paper's sizes; benches default to a smaller
 * scale so every binary finishes in seconds — the models are analytic in
 * size so the ratios are stable).
 */
Workload table2Workload(accel::AccelKind kind, double scale = 1.0);

/** Evaluate one workload on one platform. */
OpResult evaluateOp(Platform platform, const Workload &workload);

/**
 * Host-side execution profile of @p call on @p platform (HaswellMkl or
 * XeonPhiMkl). Exposed for tests and the Fig. 1 bench; the efficiency
 * factors encode the calibration discussed in EXPERIMENTS.md.
 */
host::KernelProfile hostProfile(Platform platform,
                                const accel::OpCall &call,
                                const accel::LoopSpec &loop);

} // namespace mealib::eval

#endif // MEALIB_MEALIB_PLATFORM_HH
