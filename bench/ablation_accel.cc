/**
 * @file
 * Ablation: accelerator-side design choices DESIGN.md calls out (not a
 * paper figure).
 *
 *  1. SPMV local-memory capacity: how much of the gather vector the
 *     tiles can pin decides the residual DRAM gather rate (the paper's
 *     justification for SPMV's 14.17 mm^2);
 *  2. FFT local memory: the single-pass / two-pass crossover of the
 *     DRAM-optimized FFT;
 *  3. SPMV MSHR-style gather concurrency (PE count at fixed clock);
 *  4. operand placement: local vs remote memory stack (Sec. 3.3).
 */

#include <cstdio>

#include "accel/config.hh"
#include "accel/model.hh"
#include "bench_util.hh"
#include "dram/params.hh"
#include "hwmodel/profile.hh"
#include "mealib/platform.hh"
#include "noc/mesh.hh"
#include "runtime/runtime.hh"

using namespace mealib;
using mealib::accel::AccelKind;

int
main()
{
    bench::banner("Ablation: accelerator-side design choices",
                  "SPMV local memory & gather concurrency, FFT pass "
                  "crossover, operand placement");

    std::printf("(1) SPMV: per-tile local memory (x vector pinning)\n");
    bench::Table t1({"LM (KiB/tile)", "x resident", "GFLOPS",
                     "GFLOPS/W"});
    // Full-scale rgg (4 MiB gather vector) so local memory actually
    // becomes the contended resource.
    eval::Workload spmv = eval::table2Workload(AccelKind::SPMV, 1.0);
    for (std::uint64_t lm : {16u, 32u, 64u, 128u, 256u}) {
        accel::AccelConfig cfg = accel::defaultConfig(AccelKind::SPMV);
        cfg.localMemKiB = lm;
        accel::AccelModel m(AccelKind::SPMV, cfg, hwmodel::hmcStackParams(),
                            hwmodel::mealibMeshParams());
        accel::AccelEstimate e = m.estimate(spmv.call, spmv.loop);
        double resident =
            std::min(1.0, static_cast<double>(cfg.tiles * lm * 1024) /
                              (static_cast<double>(spmv.call.n) * 4.0));
        t1.row({std::to_string(lm), bench::fmt("%.0f%%", 100 * resident),
                bench::fmt("%.1f", e.gflops()),
                bench::fmt("%.2f", e.gflopsPerW())});
    }
    t1.print();

    std::printf("(2) FFT: transform size vs aggregate local memory "
                "(single- vs two-pass)\n");
    bench::Table t2({"points", "footprint (MiB)", "GB moved",
                     "passes", "bound", "GFLOPS"});
    for (std::uint64_t lg : {16u, 18u, 20u, 22u, 24u}) {
        accel::OpCall fft;
        fft.kind = AccelKind::FFT;
        fft.n = 1ull << lg;
        fft.complexData = true;
        accel::AccelModel m(AccelKind::FFT,
                            accel::defaultConfig(AccelKind::FFT),
                            hwmodel::hmcStackParams(),
                            hwmodel::mealibMeshParams());
        accel::AccelEstimate e = m.estimate(fft);
        double footprint = static_cast<double>(fft.n) * 8;
        int passes = static_cast<int>(e.bytes / (2.0 * footprint) + 0.5);
        t2.row({"2^" + std::to_string(lg),
                bench::fmt("%.1f", footprint / 1048576.0),
                bench::fmt("%.3f", e.bytes / 1e9),
                std::to_string(passes),
                e.memSeconds > e.computeSeconds ? "memory" : "compute",
                bench::fmt("%.1f", e.gflops())});
    }
    t2.print();

    std::printf("(3) SPMV: gather concurrency (PEs/tile at 1 GHz)\n");
    bench::Table t3({"PEs/tile", "GFLOPS", "power (W)", "GFLOPS/W"});
    for (unsigned c : {1u, 2u, 4u, 8u, 16u}) {
        accel::AccelConfig cfg = accel::defaultConfig(AccelKind::SPMV);
        cfg.coresPerTile = c;
        cfg.localMemKiB = 32; // force a miss-heavy regime
        accel::AccelModel m(AccelKind::SPMV, cfg, hwmodel::hmcStackParams(),
                            hwmodel::mealibMeshParams());
        accel::AccelEstimate e = m.estimate(spmv.call, spmv.loop);
        t3.row({std::to_string(c), bench::fmt("%.1f", e.gflops()),
                bench::fmt("%.2f", e.powerW()),
                bench::fmt("%.2f", e.gflopsPerW())});
    }
    t3.print();

    std::printf("(4) operand placement: local vs remote memory stack\n");
    bench::Table t4({"placement", "time (ms)", "energy (mJ)",
                     "remote MiB"});
    {
        runtime::RuntimeConfig cfg;
        cfg.backingBytes = 64_MiB;
        cfg.numStacks = 2;
        runtime::MealibRuntime rt(cfg);
        const std::int64_t n = 2 << 20;
        auto run = [&](unsigned x_stack, const char *label) {
            auto *x = static_cast<float *>(rt.memAllocOn(x_stack, n * 4));
            auto *y = static_cast<float *>(rt.memAllocOn(0, n * 4));
            accel::OpCall c;
            c.kind = AccelKind::AXPY;
            c.n = static_cast<std::uint64_t>(n);
            c.in0.base = rt.physOf(x);
            c.out.base = rt.physOf(y);
            accel::DescriptorProgram prog;
            prog.addComp(c);
            prog.addPassEnd();
            auto h = rt.accPlan(prog);
            accel::ExecStats es = rt.accExecute(h);
            rt.accDestroy(h);
            rt.memFree(x);
            rt.memFree(y);
            t4.row({label, bench::fmt("%.3f", es.total.seconds * 1e3),
                    bench::fmt("%.3f", es.total.joules * 1e3),
                    bench::fmt("%.1f", es.remoteBytes / 1048576.0)});
        };
        run(0, "x on local stack");
        run(1, "x on remote stack");
    }
    t4.print();
    return 0;
}
