// Tests for the unified op-IR dispatch core (docs/DISPATCH.md): the
// lowering layer, the pluggable offload policies, the telemetry, the
// runtime-backed accelerator backend, and the bit-for-bit guarantee of
// host-side execution through the dispatcher.

#include <cstdlib>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/status.hh"
#include "dispatch/backend.hh"
#include "dispatch/dispatcher.hh"
#include "dispatch/models.hh"
#include "dispatch/opdesc.hh"
#include "dispatch/policy.hh"
#include "dispatch/telemetry.hh"
#include "mealib/platform.hh"
#include "minimkl/blas1.hh"
#include "minimkl/blas2.hh"
#include "minimkl/blas3.hh"
#include "minimkl/compat.hh"
#include "minimkl/fft.hh"
#include "minimkl/resample.hh"
#include "minimkl/sparse.hh"
#include "minimkl/transpose.hh"
#include "runtime/runtime.hh"

namespace mealib::dispatch {
namespace {

// --- op-IR lowering ----------------------------------------------------

TEST(OpIr, KindEnumMirrorsAccelKinds)
{
    for (std::uint8_t k = 0;
         k < static_cast<std::uint8_t>(accel::AccelKind::kCount); ++k) {
        OpKind op = opKindOf(static_cast<accel::AccelKind>(k));
        EXPECT_TRUE(accelerable(op));
        EXPECT_EQ(static_cast<std::uint8_t>(op), k);
    }
    EXPECT_FALSE(accelerable(OpKind::Gemm));
    EXPECT_FALSE(accelerable(OpKind::Herk));
    EXPECT_FALSE(accelerable(OpKind::Trsm));
    EXPECT_STREQ(name(OpKind::Axpy), "axpy");
    EXPECT_STREQ(name(OpKind::Trsm), "trsm");
}

TEST(OpIr, SaxpyLoweringRecordsProvenanceAndWork)
{
    std::vector<float> x(1024), y(1024);
    OpDesc d = lowerSaxpy(1024, 2.0f, x.data(), 1, y.data(), 1);
    EXPECT_EQ(d.kind, OpKind::Axpy);
    EXPECT_STREQ(d.entry, "cblas_saxpy");
    EXPECT_TRUE(d.accelSupported);
    EXPECT_DOUBLE_EQ(d.flops(), 2.0 * 1024);
    EXPECT_GT(d.bytes(), 0.0);
    EXPECT_EQ(d.operands[0].host, x.data());
    EXPECT_EQ(d.operands[0].bytes, 1024u * 4);
    EXPECT_FALSE(d.operands[0].written);
    EXPECT_TRUE(d.operands[4].written);
}

TEST(OpIr, RerunSafetyTracksOutputReads)
{
    std::vector<float> x(16), y(16);
    // saxpy accumulates (y := ax + y): re-running after a partial
    // offload would double-apply.
    EXPECT_FALSE(
        rerunSafe(lowerSaxpy(16, 1.0f, x.data(), 1, y.data(), 1)));
    // saxpby with b == 0 is a pure write.
    EXPECT_TRUE(rerunSafe(
        lowerSaxpby(16, 1.0f, x.data(), 1, 0.0f, y.data(), 1)));
    // ... unless it runs in place: y := 3y overwrites the y a rerun
    // reads, so a rerun after the accelerator wrote would give 9y.
    EXPECT_FALSE(rerunSafe(
        lowerSaxpby(16, 3.0f, y.data(), 1, 0.0f, y.data(), 1)));
    std::vector<float> a(16);
    EXPECT_TRUE(rerunSafe(lowerSgemv(mkl::Order::RowMajor,
                                     mkl::Transpose::NoTrans, 4, 4, 1.0f,
                                     a.data(), 4, x.data(), 1, 0.0f,
                                     y.data(), 1)));
    EXPECT_FALSE(rerunSafe(lowerSgemv(mkl::Order::RowMajor,
                                      mkl::Transpose::NoTrans, 4, 4, 1.0f,
                                      a.data(), 4, x.data(), 1, 0.5f,
                                      y.data(), 1)));
}

TEST(OpIr, ColumnMajorGemvStaysHostSide)
{
    std::vector<float> a(64), x(8), y(8);
    OpDesc rm = lowerSgemv(mkl::Order::RowMajor, mkl::Transpose::NoTrans,
                           8, 8, 1.0f, a.data(), 8, x.data(), 1, 0.0f,
                           y.data(), 1);
    OpDesc cm = lowerSgemv(mkl::Order::ColMajor, mkl::Transpose::NoTrans,
                           8, 8, 1.0f, a.data(), 8, x.data(), 1, 0.0f,
                           y.data(), 1);
    EXPECT_TRUE(rm.accelSupported);
    EXPECT_FALSE(cm.accelSupported);
}

TEST(OpIr, LegacyCsrIndexingIsNotBackendMappable)
{
    // 1-based int32 row pointers: the policy may price an offload, but
    // the backend must decline the mapping (int64 0-based hardware).
    std::vector<float> vals{2.0f, 1.0f, 3.0f};
    std::vector<std::int32_t> ia{1, 2, 4};
    std::vector<std::int32_t> ja{1, 1, 2};
    std::vector<float> x(2), y(2);
    OpDesc d = lowerScsrgemv1(2, vals.data(), ia.data(), ja.data(),
                              x.data(), y.data(), false);
    EXPECT_TRUE(d.accelSupported);
    EXPECT_FALSE(d.backendMappable);
    EXPECT_EQ(d.call.k, 3u); // nnz from the 1-based row pointer
}

// --- policies ----------------------------------------------------------

TEST(Policy, MakePolicyParsesNames)
{
    ASSERT_NE(makePolicy("host"), nullptr);
    ASSERT_NE(makePolicy("accel"), nullptr);
    ASSERT_NE(makePolicy("crossover"), nullptr);
    ASSERT_NE(makePolicy("calibrated"), nullptr);
    EXPECT_STREQ(makePolicy("host")->name(), "host");
    EXPECT_STREQ(makePolicy("crossover")->name(), "crossover");
    EXPECT_EQ(makePolicy("gpu"), nullptr);
    EXPECT_EQ(makePolicy(""), nullptr);
}

/**
 * The acceptance criterion of the dispatch PR: at the paper's Table-2
 * sizes the crossover policy offloads every memory-bounded library call
 * and keeps the compute-bounded ones (gemm, cherk, ctrsm) on the host.
 */
TEST(Policy, CrossoverReproducesTable2SplitAtPaperScale)
{
    RooflineCostModel costs;
    CrossoverModel policy;
    for (std::uint8_t k = 0;
         k < static_cast<std::uint8_t>(accel::AccelKind::kCount); ++k) {
        auto kind = static_cast<accel::AccelKind>(k);
        eval::Workload w = eval::table2Workload(kind);
        OpDesc d = opDescFromCall(w.call, w.loop);
        EXPECT_EQ(policy.decide(d, &costs), Backend::Accel)
            << accel::name(kind) << " should offload at paper scale";
    }

    // Compute-bounded calls at STAP scale: no accelerator exists, and
    // the cost model prices them host-side (+inf accelerator seconds).
    OpDesc gemm = lowerSgemm(512, 512, 512, nullptr, nullptr, nullptr);
    OpDesc herk = lowerCherk(256, 1024, nullptr, nullptr);
    OpDesc trsm = lowerCtrsm(256, 256, nullptr, nullptr);
    EXPECT_EQ(policy.decide(gemm, &costs), Backend::Host);
    EXPECT_EQ(policy.decide(herk, &costs), Backend::Host);
    EXPECT_EQ(policy.decide(trsm, &costs), Backend::Host);
}

TEST(Policy, CrossoverKeepsSmallCallsOnHost)
{
    // A 256-element axpy is dominated by the flush + handshake
    // overhead: the crossover must keep it host-side (paper Sec. 5).
    RooflineCostModel costs;
    CrossoverModel policy;
    std::vector<float> x(256), y(256);
    OpDesc d = lowerSaxpy(256, 2.0f, x.data(), 1, y.data(), 1);
    EXPECT_EQ(policy.decide(d, &costs), Backend::Host);
}

TEST(Policy, CalibratedSticksAfterWindow)
{
    RooflineCostModel costs;
    Calibrated policy(4);
    eval::Workload w = eval::table2Workload(accel::AccelKind::AXPY);
    OpDesc d = opDescFromCall(w.call, w.loop);
    EXPECT_FALSE(policy.sticky(OpKind::Axpy));
    for (int i = 0; i < 4; ++i)
        policy.decide(d, &costs);
    EXPECT_TRUE(policy.sticky(OpKind::Axpy));
    // The accumulated tallies favour the accelerator at paper scale,
    // and the choice no longer changes.
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(policy.decide(d, &costs), Backend::Accel);
}

TEST(CostModel, FusionWindowMemoSurvivesToggle)
{
    // The accel memo is keyed by (shape, window): re-pricing under a
    // window seen before must return the cached value bitwise, and a
    // toggle away and back must not re-derive (or drift) the estimate.
    RooflineCostModel costs;
    eval::Workload w = eval::table2Workload(accel::AccelKind::AXPY);
    OpDesc d = opDescFromCall(w.call, w.loop);

    const double w1 = costs.accelSeconds(d);
    costs.setFusionWindow(4);
    const double w4 = costs.accelSeconds(d);
    EXPECT_LT(w4, w1); // amortized overhead must shrink the estimate
    costs.setFusionWindow(1);
    const double w1Again = costs.accelSeconds(d);
    EXPECT_EQ(std::memcmp(&w1Again, &w1, sizeof w1), 0);
    costs.setFusionWindow(4);
    const double w4Again = costs.accelSeconds(d);
    EXPECT_EQ(std::memcmp(&w4Again, &w4, sizeof w4), 0);

    // The host side is window-independent by construction.
    costs.setFusionWindow(1);
    const double h1 = costs.hostSeconds(d);
    costs.setFusionWindow(4);
    const double h4 = costs.hostSeconds(d);
    EXPECT_EQ(std::memcmp(&h4, &h1, sizeof h1), 0);
}

TEST(CostModel, MemoKeyCoversEveryFieldTheEstimatesRead)
{
    // One shared model must price every shape as a fresh model does.
    // Each pair below differs only in a field the estimates read, so a
    // memo key without that field would return the first shape's price
    // for the second.
    auto pricesLikeFresh = [](const OpDesc &first, const OpDesc &second) {
        RooflineCostModel shared;
        const double host1 = shared.hostSeconds(first);
        const double accel1 = shared.accelSeconds(first);
        RooflineCostModel fresh;
        const double host2 = fresh.hostSeconds(second);
        const double accel2 = fresh.accelSeconds(second);
        EXPECT_NE(host2, host1);
        if (second.accelSupported) {
            EXPECT_NE(accel2, accel1);
        }
        EXPECT_EQ(shared.hostSeconds(second), host2);
        EXPECT_EQ(shared.accelSeconds(second), accel2);
    };

    {
        SCOPED_TRACE("sinc RESMP after a linear one");
        const OpDesc linear =
            lowerResample(nullptr, 1 << 20, nullptr, 2 << 20);
        OpDesc sinc = linear;
        sinc.call.resampleKind =
            static_cast<std::uint32_t>(mkl::InterpKind::Sinc8);
        pricesLikeFresh(linear, sinc);
    }

    accel::OpCall dot;
    dot.kind = accel::AccelKind::DOT;
    dot.n = 1 << 16;
    dot.in0.stride = {4 << 16, 0, 0, 0};
    dot.in1.stride = {4 << 16, 0, 0, 0};
    dot.out.stride = {4, 0, 0, 0};
    accel::LoopSpec loop;
    loop.dims = {64, 1, 1, 1};
    const OpDesc moving = opDescFromCall(dot, loop);
    {
        SCOPED_TRACE("64-iteration DOT reusing x after a moving one");
        accel::OpCall reused = dot;
        reused.in0.stride = {0, 0, 0, 0};
        pricesLikeFresh(moving, opDescFromCall(reused, loop));
    }
    {
        SCOPED_TRACE("the same 64 iterations over a dimension that "
                     "moves no operand");
        accel::LoopSpec split;
        split.dims = {8, 8, 1, 1};
        pricesLikeFresh(moving, opDescFromCall(dot, split));
    }
    {
        SCOPED_TRACE("1M-element rank-0 FFTW copy after a 1K one");
        const mkl::FftPlan small({}, {{1024, 1, 1}},
                                 mkl::FftDirection::Forward);
        const mkl::FftPlan large({}, {{1 << 20, 1, 1}},
                                 mkl::FftDirection::Forward);
        pricesLikeFresh(lowerFft(small, nullptr, nullptr),
                        lowerFft(large, nullptr, nullptr));
    }
}

TEST(CostModel, SharedModelPricesASweepLikeFreshModels)
{
    // A mixed sweep (every lowering, several sizes, real and complex,
    // flat and looped) priced through one model, then each shape through
    // a model of its own: a memo key missing any field the estimates
    // read hands some later shape an earlier shape's price.
    std::vector<OpDesc> sweep;
    Rng rng(12);
    std::vector<mkl::CsrMatrix> graphs;
    for (double degree : {4.0, 12.0})
        graphs.push_back(mkl::randomGeometricGraph(4096, degree, rng));
    for (const mkl::CsrMatrix &g : graphs)
        sweep.push_back(lowerScsrmv(g, nullptr, nullptr));
    for (std::int64_t n : {1 << 10, 1 << 16, 1 << 20}) {
        sweep.push_back(lowerSaxpy(n, 2.0f, nullptr, 1, nullptr, 1));
        sweep.push_back(lowerCaxpy(n, {1, 2}, nullptr, 1, nullptr, 1));
        sweep.push_back(lowerSdot(n, nullptr, 1, nullptr, 1, nullptr));
        sweep.push_back(lowerCdotc(n, nullptr, 1, nullptr, 1, nullptr));
        sweep.push_back(lowerSgemv(mkl::Order::RowMajor,
                                   mkl::Transpose::NoTrans, n / 64, 64,
                                   1.0f, nullptr, 64, nullptr, 1, 0.0f,
                                   nullptr, 1));
        OpDesc linear = lowerResample(nullptr, n, nullptr, 2 * n);
        sweep.push_back(linear);
        linear.call.resampleKind =
            static_cast<std::uint32_t>(mkl::InterpKind::Sinc8);
        sweep.push_back(linear);
        sweep.push_back(lowerTranspose(n / 32, 32, 1.0f, nullptr, nullptr,
                                       false, true));
        sweep.push_back(lowerTranspose(n / 32, 32, 1.0f, nullptr, nullptr,
                                       true, true));
        const auto batched = mkl::FftPlan::dft1dBatched(
            64, n / 64, 64, mkl::FftDirection::Forward);
        sweep.push_back(lowerFft(batched, nullptr, nullptr));
        const mkl::FftPlan copy({}, {{n, 1, 1}},
                                mkl::FftDirection::Forward);
        sweep.push_back(lowerFft(copy, nullptr, nullptr));
        sweep.push_back(lowerSscal(n, nullptr, 1));
        sweep.push_back(lowerScopy(n, nullptr, 1, nullptr, 1));
        const std::int64_t side = n >> 6;
        sweep.push_back(lowerSgemm(side, side, 64, nullptr, nullptr,
                                   nullptr));
        sweep.push_back(lowerCherk(side, 64, nullptr, nullptr));
        sweep.push_back(lowerCtrsm(side, 64, nullptr, nullptr));
    }
    accel::OpCall dot;
    dot.kind = accel::AccelKind::DOT;
    dot.n = 1 << 14;
    for (std::int64_t xStride : {0, 4 << 14}) {
        dot.in0.stride = {xStride, 0, 0, 0};
        dot.in1.stride = {4 << 14, 0, 0, 0};
        dot.out.stride = {4, 0, 0, 0};
        for (std::uint32_t inner : {64u, 8u}) {
            accel::LoopSpec loop;
            loop.dims = {inner, 64 / inner, 1, 1};
            sweep.push_back(opDescFromCall(dot, loop));
        }
    }

    RooflineCostModel shared;
    std::vector<double> host, accel;
    for (const OpDesc &d : sweep) {
        host.push_back(shared.hostSeconds(d));
        accel.push_back(shared.accelSeconds(d));
    }
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        RooflineCostModel fresh;
        EXPECT_EQ(host[i], fresh.hostSeconds(sweep[i]))
            << "shape " << i << " (" << name(sweep[i].kind) << ")";
        EXPECT_EQ(accel[i], fresh.accelSeconds(sweep[i]))
            << "shape " << i << " (" << name(sweep[i].kind) << ")";
    }
}

TEST(Policy, ModelDrivenPoliciesDefaultHostWithoutOracle)
{
    CrossoverModel crossover;
    Calibrated calibrated;
    std::vector<float> x(1 << 20), y(1 << 20);
    OpDesc d = lowerSaxpy(1 << 20, 2.0f, x.data(), 1, y.data(), 1);
    EXPECT_EQ(crossover.decide(d, nullptr), Backend::Host);
    EXPECT_EQ(calibrated.decide(d, nullptr), Backend::Host);
}

// --- dispatcher execution & telemetry ----------------------------------

/** Scripted backend: fails or succeeds on demand, counts invocations. */
class FakeBackend final : public AccelBackend
{
  public:
    const char *name() const override { return "fake"; }
    Status
    execute(const OpDesc &) override
    {
        executes++;
        return fail ? Status::error(code, "scripted failure") : Status();
    }

    unsigned executes = 0;
    bool fail = false;
    ErrorCode code = ErrorCode::DeviceFailed;
};

TEST(Dispatcher, NoBackendFallbackExecutesHostFn)
{
    Dispatcher disp(makePolicy("accel"));
    std::vector<float> x{1, 2, 3}, y{4, 5, 6};
    OpDesc d =
        lowerSaxpby(3, 2.0f, x.data(), 1, 0.0f, y.data(), 1);
    disp.run(d, [&] { mkl::saxpby(3, 2.0f, x.data(), 1, 0.0f,
                                  y.data(), 1); });
    EXPECT_FLOAT_EQ(y[0], 2.0f);
    EXPECT_FLOAT_EQ(y[2], 6.0f);

    DispatchStats s = disp.snapshot();
    const OpStats &axpy = s.of(OpKind::Axpy);
    EXPECT_EQ(axpy.calls, 1u);
    EXPECT_EQ(axpy.accelDecisions, 1u);
    EXPECT_EQ(axpy.offloaded, 0u);
    EXPECT_EQ(axpy.fallbacks, 1u);
    EXPECT_EQ(axpy.fallbackBy[static_cast<std::size_t>(
                  FallbackReason::NoBackend)],
              1u);
}

TEST(Dispatcher, UnmappableDeclinesBeforeTouchingBackend)
{
    Dispatcher disp(makePolicy("accel"));
    FakeBackend backend;
    disp.attachBackend(&backend);

    std::vector<float> vals{2.0f, 1.0f, 3.0f};
    std::vector<std::int32_t> ia{1, 2, 4};
    std::vector<std::int32_t> ja{1, 1, 2};
    std::vector<float> x{10.0f, 100.0f}, y{0.0f, 0.0f};
    OpDesc d = lowerScsrgemv1(2, vals.data(), ia.data(), ja.data(),
                              x.data(), y.data(), false);
    bool ranHost = false;
    disp.run(d, [&] { ranHost = true; });
    disp.detachBackend();

    EXPECT_TRUE(ranHost);
    EXPECT_EQ(backend.executes, 0u);
    DispatchStats s = disp.snapshot();
    EXPECT_EQ(s.of(OpKind::Spmv).fallbackBy[static_cast<std::size_t>(
                  FallbackReason::Unmappable)],
              1u);
}

TEST(Dispatcher, BackendErrorRerunsHostWhenSafe)
{
    Dispatcher disp(makePolicy("accel"));
    FakeBackend backend;
    backend.fail = true;
    disp.attachBackend(&backend);

    std::vector<float> x{1, 1}, y{9, 9};
    OpDesc safe = lowerSaxpby(2, 3.0f, x.data(), 1, 0.0f, y.data(), 1);
    disp.run(safe, [&] { mkl::saxpby(2, 3.0f, x.data(), 1, 0.0f,
                                     y.data(), 1); });
    EXPECT_EQ(backend.executes, 1u);
    EXPECT_FLOAT_EQ(y[0], 3.0f); // host rerun produced the result

    // A non-rerun-safe op (accumulating saxpy) must surface the error
    // instead of double-applying.
    OpDesc unsafe = lowerSaxpy(2, 3.0f, x.data(), 1, y.data(), 1);
    EXPECT_THROW(disp.run(unsafe, [&] {}), MealibError);
    // Nor may an in-place saxpby rerun: its input is the y the
    // accelerator may already have overwritten.
    OpDesc inPlace = lowerSaxpby(2, 3.0f, y.data(), 1, 0.0f, y.data(), 1);
    EXPECT_THROW(disp.run(inPlace, [&] {}), MealibError);
    disp.detachBackend();

    DispatchStats s = disp.snapshot();
    EXPECT_EQ(s.of(OpKind::Axpy).fallbackBy[static_cast<std::size_t>(
                  FallbackReason::BackendError)],
              3u);
}

TEST(Dispatcher, DeclineBeforeSubmissionFallsBackEvenWhenNotRerunSafe)
{
    // InvalidArgument is the backend refusing the call before it runs:
    // even an accumulating saxpy falls back to the host, once, and the
    // decline counts as unmappable rather than as a backend error.
    Dispatcher disp(makePolicy("accel"));
    FakeBackend backend;
    backend.fail = true;
    backend.code = ErrorCode::InvalidArgument;
    disp.attachBackend(&backend);

    std::vector<float> x{1, 2}, y{10, 20};
    OpDesc d = lowerSaxpy(2, 3.0f, x.data(), 1, y.data(), 1);
    ASSERT_FALSE(rerunSafe(d));
    EXPECT_NO_THROW(disp.run(d, [&] { mkl::saxpy(2, 3.0f, x.data(), 1,
                                                 y.data(), 1); }));
    disp.detachBackend();

    EXPECT_EQ(backend.executes, 1u);
    EXPECT_FLOAT_EQ(y[0], 13.0f);
    EXPECT_FLOAT_EQ(y[1], 26.0f);
    DispatchStats s = disp.snapshot();
    const OpStats &axpy = s.of(OpKind::Axpy);
    EXPECT_EQ(axpy.offloaded, 0u);
    EXPECT_EQ(axpy.fallbacks, 1u);
    EXPECT_EQ(axpy.fallbackBy[static_cast<std::size_t>(
                  FallbackReason::Unmappable)],
              1u);
    EXPECT_EQ(axpy.fallbackBy[static_cast<std::size_t>(
                  FallbackReason::BackendError)],
              0u);
}

TEST(Dispatcher, TelemetryJsonCarriesSchema)
{
    Dispatcher disp(makePolicy("accel"));
    std::vector<float> x(64), y(64);
    OpDesc d = lowerSaxpby(64, 1.0f, x.data(), 1, 0.0f, y.data(), 1);
    disp.run(d, [&] {});
    std::string json = disp.snapshot().toJson("accel");
    EXPECT_NE(json.find("\"policy\": \"accel\""), std::string::npos);
    EXPECT_NE(json.find("\"calls\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"offload_ratio\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"axpy\""), std::string::npos);
    // Kinds with zero calls are skipped.
    EXPECT_EQ(json.find("\"kind\": \"gemm\""), std::string::npos);
}

// --- bit-for-bit host execution (satellite 3) --------------------------

/**
 * The HostOnly guarantee on a STAP-like pipeline: the covariance /
 * solve / beamform sequence computed through the dispatched compat
 * entry points is byte-identical to direct mkl:: kernel calls. The
 * global dispatcher runs here exactly as in the rewritten apps; with
 * any policy but no backend every call must still execute the host
 * kernels bit-for-bit.
 */
TEST(Dispatcher, StapPipelineBitForBitThroughDispatch)
{
    const std::int64_t ch = 8, snap = 32;
    Rng rngA(11), rngB(11);
    auto fill = [](std::vector<mkl::cfloat> &v, Rng &rng) {
        for (auto &c : v)
            c = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};
    };

    // Two identical input sets, one per path.
    std::vector<mkl::cfloat> a1(ch * snap), a2(ch * snap);
    fill(a1, rngA);
    fill(a2, rngB);
    std::vector<mkl::cfloat> cov1(ch * ch, mkl::cfloat{0, 0});
    std::vector<mkl::cfloat> cov2 = cov1;
    std::vector<mkl::cfloat> steer1(ch, mkl::cfloat{1, 0});
    std::vector<mkl::cfloat> steer2 = steer1;
    std::vector<mkl::cfloat> out1(ch, mkl::cfloat{0, 0});
    std::vector<mkl::cfloat> out2 = out1;

    // Path 1: the MKL-signature shims (what the apps call).
    cblas_cherk(CblasRowMajor, CblasUpper, CblasNoTrans, ch, snap, 1.0f,
                a1.data(), snap, 0.0f, cov1.data(), ch);
    mkl::cfloat alpha{1, 0};
    cblas_ctrsm(CblasRowMajor, CblasLeft, CblasUpper, CblasConjTrans,
                CblasNonUnit, ch, 1, &alpha, cov1.data(), ch,
                steer1.data(), 1);
    mkl::cfloat g1;
    cblas_cdotc_sub(ch, steer1.data(), 1, steer1.data(), 1, &g1);
    cblas_caxpy(ch, &g1, steer1.data(), 1, out1.data(), 1);

    // Path 2: the un-dispatched kernels.
    mkl::cherk(mkl::Order::RowMajor, mkl::Uplo::Upper,
               mkl::Transpose::NoTrans, ch, snap, 1.0f, a2.data(), snap,
               0.0f, cov2.data(), ch);
    mkl::ctrsm(mkl::Order::RowMajor, mkl::Side::Left, mkl::Uplo::Upper,
               mkl::Transpose::ConjTrans, mkl::Diag::NonUnit, ch, 1,
               alpha, cov2.data(), ch, steer2.data(), 1);
    mkl::cfloat g2 = mkl::cdotc(ch, steer2.data(), 1, steer2.data(), 1);
    mkl::caxpy(ch, g2, steer2.data(), 1, out2.data(), 1);

    EXPECT_EQ(std::memcmp(cov1.data(), cov2.data(),
                          cov1.size() * sizeof(mkl::cfloat)),
              0);
    EXPECT_EQ(std::memcmp(steer1.data(), steer2.data(),
                          steer1.size() * sizeof(mkl::cfloat)),
              0);
    EXPECT_EQ(std::memcmp(out1.data(), out2.data(),
                          out1.size() * sizeof(mkl::cfloat)),
              0);
    EXPECT_EQ(std::memcmp(&g1, &g2, sizeof g1), 0);
}

TEST(Dispatcher, CompatShimsBitForBitThroughDispatch)
{
    // The C-named shims (compat.cc) also lower + dispatch now; pure
    // BLAS-1/2 legs must stay bit-identical to the mkl:: kernels.
    std::vector<float> x{1, 2, 3, 4}, y1{5, 6, 7, 8};
    std::vector<float> y2 = y1;
    cblas_saxpy(4, 1.5f, x.data(), 1, y1.data(), 1);
    mkl::saxpy(4, 1.5f, x.data(), 1, y2.data(), 1);
    EXPECT_EQ(std::memcmp(y1.data(), y2.data(), 4 * sizeof(float)), 0);
    EXPECT_EQ(cblas_sdot(4, x.data(), 1, y1.data(), 1),
              mkl::sdot(4, x.data(), 1, y2.data(), 1));
}

// --- runtime backend ---------------------------------------------------

TEST(RuntimeBackend, OffloadedAxpyMatchesHostKernel)
{
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 8ull << 20;
    runtime::MealibRuntime rt(cfg);

    const std::int64_t n = 4096;
    auto *x = static_cast<float *>(rt.memAlloc(n * 4));
    auto *y = static_cast<float *>(rt.memAlloc(n * 4));
    std::vector<float> xh(n), yh(n);
    Rng rng(21);
    for (std::int64_t i = 0; i < n; ++i) {
        x[i] = xh[i] = rng.uniform(-1.0f, 1.0f);
        y[i] = yh[i] = rng.uniform(-1.0f, 1.0f);
    }

    Dispatcher disp(makePolicy("accel"));
    RuntimeBackend backend(rt);
    disp.attachBackend(&backend);
    OpDesc d = lowerSaxpy(n, 2.0f, x, 1, y, 1);
    bool ranHost = false;
    disp.run(d, [&] { ranHost = true; });
    disp.detachBackend();

    EXPECT_FALSE(ranHost);
    DispatchStats s = disp.snapshot();
    EXPECT_EQ(s.of(OpKind::Axpy).offloaded, 1u);
    EXPECT_GT(s.of(OpKind::Axpy).bytesOffloaded, 0.0);

    // The functional accelerator engine computes the same numbers the
    // host kernel would.
    mkl::saxpy(n, 2.0f, xh.data(), 1, yh.data(), 1);
    EXPECT_EQ(std::memcmp(y, yh.data(),
                          static_cast<std::size_t>(n) * 4),
              0);
    rt.memFree(x);
    rt.memFree(y);
}

TEST(RuntimeBackend, DeclinesOperandsOutsideAcceleratorMemory)
{
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 8ull << 20;
    runtime::MealibRuntime rt(cfg);

    Dispatcher disp(makePolicy("accel"));
    RuntimeBackend backend(rt);
    disp.attachBackend(&backend);

    // Plain heap buffers: tryPhysOf fails, the backend declines before
    // submitting anything, and the host path produces the result.
    std::vector<float> x{1, 1, 1, 1}, y{9, 9, 9, 9};
    OpDesc d = lowerSaxpby(4, 2.0f, x.data(), 1, 0.0f, y.data(), 1);
    disp.run(d, [&] { mkl::saxpby(4, 2.0f, x.data(), 1, 0.0f,
                                  y.data(), 1); });
    EXPECT_FLOAT_EQ(y[0], 2.0f);

    // Accumulating saxpy reads y, so it is not rerun-safe; a decline
    // still falls back, and the C-signature call must not throw.
    std::vector<float> expect = y;
    mkl::saxpy(4, 2.0f, x.data(), 1, expect.data(), 1);
    Dispatcher *prev = bindCurrentDispatcher(&disp);
    EXPECT_NO_THROW(cblas_saxpy(4, 2.0f, x.data(), 1, y.data(), 1));
    bindCurrentDispatcher(prev);
    disp.detachBackend();
    EXPECT_EQ(y, expect);

    // One unmappable fallback per declined call; nothing was priced.
    DispatchStats s = disp.snapshot();
    const OpStats &axpy = s.of(OpKind::Axpy);
    EXPECT_EQ(axpy.offloaded, 0u);
    EXPECT_EQ(axpy.fallbacks, 2u);
    EXPECT_EQ(axpy.fallbackBy[static_cast<std::size_t>(
                  FallbackReason::Unmappable)],
              2u);
    EXPECT_EQ(rt.ledger().total().seconds, 0.0);
    EXPECT_EQ(rt.ledger().total().joules, 0.0);
}

} // namespace
} // namespace mealib::dispatch
