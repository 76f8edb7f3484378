/**
 * @file
 * Figure 11 reproduction: design-space exploration of the FFT and SPMV
 * accelerators at 510 GB/s. Sweeps clock frequency (0.8-2.0 GHz), PE
 * count, local memory and block size, printing (power, performance,
 * GFLOPS/W) points and the resulting efficiency ranges.
 *
 * Paper: FFT spans ~10-56 GFLOPS/W with performance up to ~2250 GFLOPS;
 * SPMV spans ~0.18-1.76 GFLOPS/W with performance up to ~45 GFLOPS.
 */

#include <algorithm>
#include <cstdio>
#include <limits>

#include "accel/config.hh"
#include "accel/model.hh"
#include "bench_util.hh"
#include "common/cli.hh"
#include "common/units.hh"
#include "dram/params.hh"
#include "hwmodel/profile.hh"
#include "mealib/platform.hh"
#include "noc/mesh.hh"

using namespace mealib;
using mealib::accel::AccelKind;

namespace {

struct Range
{
    double minEff = std::numeric_limits<double>::infinity();
    double maxEff = 0.0;
    double maxPerf = 0.0;
};

Range
sweep(AccelKind kind, const eval::Workload &w)
{
    const double freqs[] = {0.8_GHz, 1.2_GHz, 1.6_GHz, 2.0_GHz};
    const unsigned cores[] = {1, 2, 4, 8};
    const std::uint64_t lms[] = {64, 128, 256};

    std::printf("%s design space (freq x PEs/tile x LM KiB):\n",
                accel::name(kind));
    bench::Table t({"freq (GHz)", "PEs/tile", "LM (KiB)", "power (W)",
                    "perf (GFLOPS)", "GFLOPS/W"});
    Range range;
    for (double f : freqs) {
        for (unsigned c : cores) {
            for (std::uint64_t lm : lms) {
                accel::AccelConfig cfg = accel::defaultConfig(kind);
                cfg.freq = f;
                cfg.coresPerTile = c;
                cfg.localMemKiB = lm;
                accel::AccelModel model(kind, cfg, hwmodel::hmcStackParams(),
                                        hwmodel::mealibMeshParams());
                accel::AccelEstimate e = model.estimate(w.call, w.loop);
                double eff = e.gflopsPerW();
                range.minEff = std::min(range.minEff, eff);
                range.maxEff = std::max(range.maxEff, eff);
                range.maxPerf = std::max(range.maxPerf, e.gflops());
                if (lm == 256) // keep the printed table readable
                    t.row({bench::fmt("%.1f", f / 1e9),
                           std::to_string(c), std::to_string(lm),
                           bench::fmt("%.2f", e.powerW()),
                           bench::fmt("%.1f", e.gflops()),
                           bench::fmt("%.2f", eff)});
            }
        }
    }
    t.print();
    return range;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli(argc, argv);
    double scale = cli.has("paper-scale")
                       ? 1.0
                       : cli.getDouble("scale", 1.0 / 16.0);

    bench::banner("Figure 11: FFT and SPMV accelerator design spaces at "
                  "510 GB/s",
                  "FFT: 10-56 GFLOPS/W depending on the power budget; "
                  "SPMV: 0.18-1.76 GFLOPS/W");

    Range fft = sweep(AccelKind::FFT,
                      eval::table2Workload(AccelKind::FFT, scale));
    Range spmv = sweep(AccelKind::SPMV,
                       eval::table2Workload(AccelKind::SPMV, scale));

    std::printf("FFT efficiency range:  %.1f .. %.1f GFLOPS/W "
                "(paper 10 .. 56), peak %.0f GFLOPS (paper ~2250)\n",
                fft.minEff, fft.maxEff, fft.maxPerf);
    std::printf("SPMV efficiency range: %.2f .. %.2f GFLOPS/W "
                "(paper 0.18 .. 1.76), peak %.1f GFLOPS (paper ~45)\n",
                spmv.minEff, spmv.maxEff, spmv.maxPerf);
    return 0;
}
