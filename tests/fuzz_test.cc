// Differential property tests: randomly generated descriptor programs
// executed through the full TDL -> encode -> decode -> accelerator-layer
// path must match direct MiniMKL execution, for every accelerator kind
// and random shapes/strides/loop structures. Random multi-pass programs
// also check that the runtime's reading of a program (hazard intervals,
// expanded COMP count) covers what the layer actually executes.

#include <algorithm>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "minimkl/blas1.hh"
#include "minimkl/blas2.hh"
#include "minimkl/fft.hh"
#include "minimkl/resample.hh"
#include "minimkl/transpose.hh"
#include "runtime/runtime.hh"
#include "tdl/params.hh"

namespace mealib {
namespace {

using accel::AccelKind;
using accel::DescriptorProgram;
using accel::LoopSpec;
using accel::OpCall;
using mkl::cfloat;

class DescriptorFuzz : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    void
    SetUp() override
    {
        runtime::RuntimeConfig cfg;
        cfg.backingBytes = 64_MiB;
        rt_ = std::make_unique<runtime::MealibRuntime>(cfg);
        rng_ = std::make_unique<Rng>(GetParam());
    }

    float *
    randomBuf(std::uint64_t elems)
    {
        auto *p = static_cast<float *>(rt_->memAlloc(elems * 4));
        for (std::uint64_t i = 0; i < elems; ++i)
            p[i] = rng_->uniform(-1.0f, 1.0f);
        bufs_.push_back(p);
        return p;
    }

    cfloat *
    randomCBuf(std::uint64_t elems)
    {
        auto *p = static_cast<cfloat *>(rt_->memAlloc(elems * 8));
        for (std::uint64_t i = 0; i < elems; ++i)
            p[i] = {rng_->uniform(-1.0f, 1.0f),
                    rng_->uniform(-1.0f, 1.0f)};
        bufs_.push_back(p);
        return p;
    }

    /** Round-trip the program through the binary descriptor format and
     * execute it on the layer. */
    void
    execute(const DescriptorProgram &prog)
    {
        auto image = accel::encode(prog);
        DescriptorProgram back = accel::decode(image.data(),
                                               image.size());
        auto h = rt_->accPlan(back);
        rt_->accExecute(h);
        rt_->accDestroy(h);
    }

    void
    TearDown() override
    {
        for (void *p : bufs_)
            rt_->memFree(p);
    }

    std::unique_ptr<runtime::MealibRuntime> rt_;
    std::unique_ptr<Rng> rng_;
    std::vector<void *> bufs_;
};

TEST_P(DescriptorFuzz, LoopedAxpbyMatchesOracle)
{
    const std::uint64_t n = 64 + rng_->below(2000);
    const std::uint32_t iters =
        static_cast<std::uint32_t>(1 + rng_->below(7));
    float alpha = rng_->uniform(-2.0f, 2.0f);
    float beta = rng_->uniform(-2.0f, 2.0f);

    float *x = randomBuf(n * iters);
    float *y = randomBuf(n * iters);
    std::vector<float> y_ref(y, y + n * iters);

    OpCall c;
    c.kind = AccelKind::AXPY;
    c.n = n;
    c.alpha = alpha;
    c.beta = beta;
    c.in0 = {rt_->physOf(x), {static_cast<std::int64_t>(n * 4), 0, 0, 0}};
    c.out = {rt_->physOf(y), {static_cast<std::int64_t>(n * 4), 0, 0, 0}};
    LoopSpec loop;
    loop.dims = {iters, 1, 1, 1};

    DescriptorProgram prog;
    prog.addLoop(loop, 2);
    prog.addComp(c);
    prog.addPassEnd();
    execute(prog);

    for (std::uint32_t it = 0; it < iters; ++it)
        mkl::saxpby(static_cast<std::int64_t>(n), alpha, x + it * n, 1,
                    beta, y_ref.data() + it * n, 1);
    for (std::uint64_t i = 0; i < n * iters; ++i)
        ASSERT_EQ(y[i], y_ref[i]) << "i=" << i;
}

TEST_P(DescriptorFuzz, StridedDotMatchesOracle)
{
    const std::uint64_t n = 16 + rng_->below(300);
    const std::int64_t inc = 1 + static_cast<std::int64_t>(
                                     rng_->below(3));
    float *x = randomBuf(n * static_cast<std::uint64_t>(inc));
    float *y = randomBuf(n * static_cast<std::uint64_t>(inc));
    float *out = randomBuf(1);

    OpCall c;
    c.kind = AccelKind::DOT;
    c.n = n;
    c.inc0 = inc;
    c.inc1 = inc;
    c.in0.base = rt_->physOf(x);
    c.in1.base = rt_->physOf(y);
    c.out.base = rt_->physOf(out);
    DescriptorProgram prog;
    prog.addComp(c);
    prog.addPassEnd();
    execute(prog);

    float ref = mkl::sdot(static_cast<std::int64_t>(n), x, inc, y, inc);
    EXPECT_EQ(*out, ref);
}

TEST_P(DescriptorFuzz, GemvMatchesOracle)
{
    const std::uint64_t m = 8 + rng_->below(60);
    const std::uint64_t n = 8 + rng_->below(60);
    float alpha = rng_->uniform(-1.0f, 1.0f);
    float beta = rng_->uniform(-1.0f, 1.0f);
    float *a = randomBuf(m * n);
    float *x = randomBuf(n);
    float *y = randomBuf(m);
    std::vector<float> y_ref(y, y + m);

    OpCall c;
    c.kind = AccelKind::GEMV;
    c.m = m;
    c.n = n;
    c.alpha = alpha;
    c.beta = beta;
    c.in0.base = rt_->physOf(a);
    c.in1.base = rt_->physOf(x);
    c.out.base = rt_->physOf(y);
    DescriptorProgram prog;
    prog.addComp(c);
    prog.addPassEnd();
    execute(prog);

    mkl::sgemv(mkl::Order::RowMajor, mkl::Transpose::NoTrans,
               static_cast<std::int64_t>(m), static_cast<std::int64_t>(n),
               alpha, a, static_cast<std::int64_t>(n), x, 1, beta,
               y_ref.data(), 1);
    for (std::uint64_t i = 0; i < m; ++i)
        ASSERT_EQ(y[i], y_ref[i]);
}

TEST_P(DescriptorFuzz, BatchedFftMatchesOracle)
{
    const std::uint64_t lg = 3 + rng_->below(6); // 8 .. 256 points
    const std::uint64_t n = 1ull << lg;
    const std::uint64_t batch = 1 + rng_->below(5);
    bool inverse = rng_->below(2) == 1;
    cfloat *in = randomCBuf(n * batch);
    cfloat *out = randomCBuf(n * batch);

    OpCall c;
    c.kind = AccelKind::FFT;
    c.n = n;
    c.m = batch;
    c.complexData = true;
    c.fftDir = inverse ? 1 : -1;
    c.in0.base = rt_->physOf(in);
    c.out.base = rt_->physOf(out);
    DescriptorProgram prog;
    prog.addComp(c);
    prog.addPassEnd();
    execute(prog);

    std::vector<cfloat> ref(n * batch);
    mkl::FftPlan::dft1dBatched(
        static_cast<std::int64_t>(n), static_cast<std::int64_t>(batch),
        static_cast<std::int64_t>(n),
        inverse ? mkl::FftDirection::Inverse
                : mkl::FftDirection::Forward)
        .execute(in, ref.data());
    for (std::uint64_t i = 0; i < n * batch; ++i)
        ASSERT_EQ(out[i], ref[i]);
}

TEST_P(DescriptorFuzz, ReshapeMatchesOracle)
{
    const std::uint64_t rows = 4 + rng_->below(80);
    const std::uint64_t cols = 4 + rng_->below(80);
    float *in = randomBuf(rows * cols);
    float *out = randomBuf(rows * cols);

    OpCall c;
    c.kind = AccelKind::RESHP;
    c.m = rows;
    c.n = cols;
    c.in0.base = rt_->physOf(in);
    c.out.base = rt_->physOf(out);
    DescriptorProgram prog;
    prog.addComp(c);
    prog.addPassEnd();
    execute(prog);

    std::vector<float> ref(rows * cols);
    mkl::somatcopy(mkl::Order::RowMajor, mkl::Transpose::Trans,
                   static_cast<std::int64_t>(rows),
                   static_cast<std::int64_t>(cols), 1.0f, in,
                   static_cast<std::int64_t>(cols), ref.data(),
                   static_cast<std::int64_t>(rows));
    for (std::uint64_t i = 0; i < rows * cols; ++i)
        ASSERT_EQ(out[i], ref[i]);
}

TEST_P(DescriptorFuzz, ResampleMatchesOracle)
{
    const std::uint64_t n = 32 + rng_->below(1000);
    const std::uint64_t m = 16 + rng_->below(2000);
    const std::uint32_t kind = static_cast<std::uint32_t>(
        rng_->below(3));
    float *in = randomBuf(n);
    float *out = randomBuf(m);

    OpCall c;
    c.kind = AccelKind::RESMP;
    c.n = n;
    c.m = m;
    c.resampleKind = kind;
    c.in0.base = rt_->physOf(in);
    c.out.base = rt_->physOf(out);
    DescriptorProgram prog;
    prog.addComp(c);
    prog.addPassEnd();
    execute(prog);

    std::vector<float> ref(m);
    mkl::resample1d(in, static_cast<std::int64_t>(n), ref.data(),
                    static_cast<std::int64_t>(m),
                    static_cast<mkl::InterpKind>(kind));
    for (std::uint64_t i = 0; i < m; ++i)
        ASSERT_EQ(out[i], ref[i]);
}

TEST_P(DescriptorFuzz, ParamFileRoundTripPreservesSemantics)
{
    // OpCall -> .para text -> OpCall -> execute must equal direct
    // execution (exercises the TDL parameter serialization).
    const std::uint64_t n = 64 + rng_->below(500);
    float *x = randomBuf(n);
    float *y = randomBuf(n);
    std::vector<float> y0(y, y + n);

    OpCall c;
    c.kind = AccelKind::AXPY;
    c.n = n;
    c.alpha = rng_->uniform(-2.0f, 2.0f);
    c.beta = rng_->uniform(-2.0f, 2.0f);
    c.in0.base = rt_->physOf(x);
    c.out.base = rt_->physOf(y);

    OpCall back = tdl::parseParams(c.kind, tdl::formatParams(c));
    EXPECT_EQ(back.n, c.n);
    EXPECT_EQ(back.in0.base, c.in0.base);

    DescriptorProgram prog;
    prog.addComp(back);
    prog.addPassEnd();
    execute(prog);

    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(y[i], c.alpha * x[i] + c.beta * y0[i]);
}

TEST_P(DescriptorFuzz, AccessIntervalsCoverEveryLayerWrite)
{
    // Random valid programs of 1-3 passes, looped or not, of 1-3 COMPs
    // where a COMP may read its predecessor's output (the hardware
    // chained shape). In a poisoned arena, every byte the layer changes
    // must lie in a write interval of accessIntervals(), and
    // expandedCompCount() must equal the COMPs the layer executed.
    enum Mode : unsigned { kAdvance, kReverse, kReuse };
    // Bytes every chained output region holds per iteration: at least
    // the largest in0 footprint drawn below.
    constexpr std::uint64_t kChainBytes = 8 * 1024;
    // SPMV is last: it reads CSR arrays, so it is never chained.
    constexpr AccelKind kKinds[] = {AccelKind::AXPY, AccelKind::DOT,
                                    AccelKind::GEMV, AccelKind::RESMP,
                                    AccelKind::FFT,  AccelKind::RESHP,
                                    AccelKind::SPMV};
    constexpr std::int64_t kIncs[] = {1, 2, -1, -3};
    Rng &rng = *rng_;

    for (int round = 0; round < 4; ++round) {
        runtime::RuntimeConfig cfg;
        cfg.backingBytes = 8_MiB;
        runtime::MealibRuntime rt(cfg);
        dram::PhysMem &mem = rt.mem();
        std::memset(mem.raw(0, mem.size()), 0xA5, mem.size());

        // One random-filled region per operand holding every loop
        // iteration's share of @p bytes, strided forward, backward or
        // not at all across the two loop dimensions.
        LoopSpec loop;
        auto region = [&](std::uint64_t bytes, Mode mode) {
            const std::uint64_t r = (bytes + 63) / 64 * 64;
            const std::uint64_t total =
                mode == kReuse ? r : r * loop.iterations();
            auto *p = static_cast<float *>(rt.memAlloc(total));
            for (std::uint64_t i = 0; i < total / 4; ++i)
                p[i] = rng.uniform(-1.0f, 1.0f);
            accel::OperandRef op{rt.physOf(p), {0, 0, 0, 0}};
            if (mode != kReuse) {
                const auto inner = static_cast<std::int64_t>(r);
                const std::int64_t outer = inner * loop.dims[1];
                op.stride = {mode == kReverse ? -outer : outer, inner, 0,
                             0};
                if (mode == kReverse)
                    op.base += static_cast<Addr>(outer) *
                               (loop.dims[0] - 1);
            }
            return op;
        };
        auto anyMode = [&] { return static_cast<Mode>(rng.below(3)); };
        auto inc = [&] { return kIncs[rng.below(4)]; };

        DescriptorProgram prog;
        const std::uint64_t passes = 1 + rng.below(3);
        for (std::uint64_t p = 0; p < passes; ++p) {
            loop = LoopSpec{};
            const bool looped = rng.below(2) == 1;
            if (looped)
                loop.dims = {static_cast<std::uint32_t>(1 + rng.below(4)),
                             static_cast<std::uint32_t>(1 + rng.below(2)),
                             1, 1};
            const std::uint64_t comps = 1 + rng.below(3);
            std::vector<bool> chained(comps + 1, false);
            for (std::uint64_t i = 1; i < comps; ++i)
                chained[i] = rng.below(2) == 1;
            if (looped)
                prog.addLoop(loop, static_cast<std::uint32_t>(comps + 1));

            accel::OperandRef prevOut;
            for (std::uint64_t i = 0; i < comps; ++i) {
                OpCall c;
                c.kind = kKinds[rng.below(chained[i] ? 6 : 7)];
                c.complexData = rng.below(2) == 1;
                c.alpha = rng.uniform(-2.0f, 2.0f);
                c.beta = rng.uniform(-2.0f, 2.0f);
                std::uint64_t in0 = 0, out = 0;
                switch (c.kind) {
                  case AccelKind::AXPY:
                    c.n = 8 + rng.below(192);
                    c.inc0 = inc();
                    c.inc1 = inc();
                    in0 = accel::spanElems(c.n, c.inc0) * c.elemBytes();
                    out = accel::spanElems(c.n, c.inc1) * c.elemBytes();
                    break;
                  case AccelKind::DOT:
                    c.n = 8 + rng.below(192);
                    c.inc0 = inc();
                    c.inc1 = inc();
                    c.conjugate = rng.below(2) == 1;
                    in0 = accel::spanElems(c.n, c.inc0) * c.elemBytes();
                    c.in1 = region(accel::spanElems(c.n, c.inc1) *
                                       c.elemBytes(),
                                   anyMode());
                    out = c.elemBytes();
                    break;
                  case AccelKind::GEMV:
                    c.complexData = false;
                    c.m = 4 + rng.below(37);
                    c.n = 4 + rng.below(37);
                    c.inc0 = inc();
                    in0 = c.m * c.n * 4;
                    c.in1 = region(accel::spanElems(c.n, c.inc0) * 4,
                                   anyMode());
                    out = c.m * 4;
                    break;
                  case AccelKind::RESMP:
                    c.n = 8 + rng.below(93);
                    c.m = 4 + rng.below(97);
                    c.resampleKind =
                        static_cast<std::uint32_t>(rng.below(3));
                    in0 = c.n * c.elemBytes();
                    out = c.m * c.elemBytes();
                    break;
                  case AccelKind::FFT:
                    c.complexData = true;
                    c.n = 8ull << rng.below(4);
                    c.k = rng.below(3) * 2;
                    c.m = 1 + rng.below(3);
                    c.fftDir = rng.below(2) == 1 ? 1 : -1;
                    in0 = out = c.n * std::max<std::uint64_t>(c.k, 1) *
                                c.m * 8;
                    break;
                  case AccelKind::RESHP:
                    c.m = 2 + rng.below(29);
                    c.n = 2 + rng.below(29);
                    in0 = out = c.m * c.n * c.elemBytes();
                    break;
                  case AccelKind::SPMV: {
                    c.complexData = false;
                    c.m = 4 + rng.below(37);
                    c.n = 4 + rng.below(37);
                    std::vector<std::int64_t> rowPtr{0};
                    std::vector<std::int32_t> colIdx;
                    for (std::uint64_t r = 0; r < c.m; ++r) {
                        const std::uint64_t nnz = 1 + rng.below(3);
                        for (std::uint64_t j = 0; j < nnz; ++j)
                            colIdx.push_back(
                                static_cast<std::int32_t>(rng.below(c.n)));
                        rowPtr.push_back(
                            static_cast<std::int64_t>(colIdx.size()));
                    }
                    c.k = colIdx.size();
                    // The CSR structure is shared by every iteration.
                    c.in0 = region(rowPtr.size() * 8, kReuse);
                    c.in1 = region(colIdx.size() * 4, kReuse);
                    c.in2 = region(colIdx.size() * 4, kReuse);
                    c.in3 = region(c.n * 4, anyMode());
                    std::memcpy(rt.virtOf(c.in0.base), rowPtr.data(),
                                rowPtr.size() * 8);
                    std::memcpy(rt.virtOf(c.in1.base), colIdx.data(),
                                colIdx.size() * 4);
                    out = c.m * 4;
                    break;
                  }
                  default:
                    FAIL() << "unexpected kind";
                }
                if (c.kind != AccelKind::SPMV)
                    c.in0 = chained[i] ? prevOut : region(in0, anyMode());
                c.out = region(chained[i + 1] ? std::max(out, kChainBytes)
                                              : out,
                               anyMode());
                prevOut = c.out;
                prog.addComp(c);
            }
            prog.addPassEnd();
        }

        const std::vector<std::uint8_t> image = accel::encode(prog);
        const DescriptorProgram back =
            accel::decode(image.data(), image.size());
        const std::vector<runtime::AccessInterval> intervals =
            runtime::accessIntervals(back);
        const std::uint8_t *bytes = mem.raw(0, mem.size());
        const std::vector<std::uint8_t> before(bytes, bytes + mem.size());

        accel::ExecStats es;
        {
            dram::StackOwnership own(rt.stack(), dram::Owner::Accelerator);
            es = rt.layer().execute(back, mem);
        }
        EXPECT_EQ(back.expandedCompCount(), es.compsExecuted);

        std::uint64_t changed = 0;
        for (Addr a = 0; a < mem.size(); ++a) {
            if (bytes[a] == before[a])
                continue;
            ++changed;
            const bool covered = std::any_of(
                intervals.begin(), intervals.end(),
                [&](const runtime::AccessInterval &iv) {
                    return iv.write && iv.lo <= a && a < iv.hi;
                });
            ASSERT_TRUE(covered) << "round " << round << ": byte " << a
                                 << " changed outside every write "
                                    "interval";
        }
        EXPECT_GT(changed, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DescriptorFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

} // namespace
} // namespace mealib
