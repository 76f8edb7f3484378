// Tests for the conjugate-gradient application.

#include <cmath>

#include <gtest/gtest.h>

#include "apps/cg.hh"
#include "common/logging.hh"
#include "dispatch/dispatcher.hh"
#include "runtime/runtime.hh"

namespace mealib::apps {
namespace {

std::vector<float>
rhs(std::int64_t n)
{
    std::vector<float> b(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i)
        b[static_cast<std::size_t>(i)] =
            static_cast<float>(std::sin(0.05 * static_cast<double>(i)));
    return b;
}

TEST(CgHost, ConvergesOnSpdSystem)
{
    mkl::CsrMatrix a = cgTestMatrix(2000, 1);
    CgResult r = solveCgHost(a, rhs(2000));
    EXPECT_TRUE(r.converged);
    EXPECT_GT(r.iterations, 1u);
    EXPECT_LT(r.iterations, 200u);
}

TEST(CgHost, DispatchesEveryLibraryCallOnce)
{
    // Tolerance 0 never converges, so all K iterations run in full: two
    // set-up dots, then per iteration one SpMV, two dots and three
    // AXPY-kind calls (two saxpy, the saxpby direction update).
    using dispatch::OpKind;
    const unsigned k = 7;
    mkl::CsrMatrix a = cgTestMatrix(500, 3);
    CgOptions opts;
    opts.tolerance = 0.0;
    opts.maxIterations = k;
    dispatch::Dispatcher disp;
    dispatch::Dispatcher *prev = dispatch::bindCurrentDispatcher(&disp);
    CgResult r = solveCgHost(a, rhs(500), opts);
    dispatch::bindCurrentDispatcher(prev);
    ASSERT_FALSE(r.converged);
    ASSERT_EQ(r.iterations, k);

    const dispatch::DispatchStats s = disp.snapshot();
    EXPECT_EQ(s.of(OpKind::Dot).calls, 2u + 2u * k);
    EXPECT_EQ(s.of(OpKind::Spmv).calls, k);
    EXPECT_EQ(s.of(OpKind::Axpy).calls, 3u * k);
    EXPECT_EQ(s.totalCalls(), 2u + 6u * k);
}

TEST(CgHost, SolutionSatisfiesSystem)
{
    const std::int64_t n = 1500;
    mkl::CsrMatrix a = cgTestMatrix(n, 2);
    std::vector<float> b = rhs(n);
    CgOptions opts;
    opts.tolerance = 1e-5;
    CgResult r = solveCgHost(a, b, opts);
    ASSERT_TRUE(r.converged);

    std::vector<float> ax(static_cast<std::size_t>(n));
    mkl::scsrmv(a, r.x.data(), ax.data());
    double rn = 0.0, bn = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        double d = static_cast<double>(b[i]) - ax[i];
        rn += d * d;
        bn += static_cast<double>(b[i]) * b[i];
    }
    EXPECT_LT(std::sqrt(rn / bn), 1e-4);
}

TEST(CgHost, TighterToleranceMoreIterations)
{
    mkl::CsrMatrix a = cgTestMatrix(1000, 3);
    std::vector<float> b = rhs(1000);
    CgOptions loose, tight;
    loose.tolerance = 1e-2;
    tight.tolerance = 1e-5;
    EXPECT_LT(solveCgHost(a, b, loose).iterations,
              solveCgHost(a, b, tight).iterations);
}

TEST(CgHost, ZeroRhsConvergesImmediately)
{
    mkl::CsrMatrix a = cgTestMatrix(100, 4);
    std::vector<float> b(100, 0.0f);
    CgResult r = solveCgHost(a, b);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.iterations, 0u);
}

TEST(CgHost, DimensionMismatchIsFatal)
{
    mkl::CsrMatrix a = cgTestMatrix(100, 5);
    std::vector<float> b(99, 1.0f);
    EXPECT_THROW(solveCgHost(a, b), FatalError);
}

TEST(CgMealib, MatchesHostBitForBit)
{
    const std::int64_t n = 1200;
    mkl::CsrMatrix a = cgTestMatrix(n, 6);
    std::vector<float> b = rhs(n);
    CgResult host = solveCgHost(a, b);

    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 64_MiB;
    runtime::MealibRuntime rt(cfg);
    CgResult mea = solveCgMealib(a, b, rt);

    EXPECT_EQ(mea.converged, host.converged);
    EXPECT_EQ(mea.iterations, host.iterations);
    ASSERT_EQ(mea.x.size(), host.x.size());
    for (std::size_t i = 0; i < host.x.size(); ++i)
        ASSERT_EQ(mea.x[i], host.x[i]) << "i=" << i;
}

TEST(CgMealib, ReusesFixedPlansAcrossIterations)
{
    const std::int64_t n = 800;
    mkl::CsrMatrix a = cgTestMatrix(n, 7);
    std::vector<float> b = rhs(n);
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 64_MiB;
    runtime::MealibRuntime rt(cfg);
    CgResult r = solveCgMealib(a, b, rt);
    ASSERT_TRUE(r.converged);
    // 2 fixed plans + 3 rebuilt axpby plans per iteration (minus the
    // final iteration's p-update, skipped on convergence).
    EXPECT_EQ(r.descriptors, 2u + 3u * r.iterations - 1u);
    // Executes: spmv + 2x dots + 3 axpbys per full iteration.
    EXPECT_GT(r.executes, 4u * r.iterations);
    EXPECT_GT(r.accel.seconds, 0.0);
}

TEST(CgMealib, SetupDotsAreItsOnlyLibraryCalls)
{
    // The two set-up norms go through cblas_sdot; every iteration runs
    // on reused descriptors, so nothing else reaches the dispatcher.
    const std::int64_t n = 400;
    mkl::CsrMatrix a = cgTestMatrix(n, 8);
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 64_MiB;
    runtime::MealibRuntime rt(cfg);
    dispatch::Dispatcher disp;
    dispatch::Dispatcher *prev = dispatch::bindCurrentDispatcher(&disp);
    CgResult r = solveCgMealib(a, rhs(n), rt);
    dispatch::bindCurrentDispatcher(prev);
    ASSERT_GT(r.iterations, 0u);

    const dispatch::DispatchStats s = disp.snapshot();
    EXPECT_EQ(s.of(dispatch::OpKind::Dot).calls, 2u);
    EXPECT_EQ(s.totalCalls(), 2u);
}

TEST(CgTestMatrix, IsSymmetricPositiveDefinitish)
{
    mkl::CsrMatrix a = cgTestMatrix(500, 8);
    a.validate();
    // Diagonal dominance: |a_ii| >= sum_j |a_ij| (strict via loading).
    for (std::int64_t r = 0; r < a.rows; ++r) {
        double diag = 0.0, off = 0.0;
        for (std::int64_t k = a.rowPtr[r]; k < a.rowPtr[r + 1]; ++k) {
            if (a.colIdx[k] == r)
                diag = a.vals[static_cast<std::size_t>(k)];
            else
                off += std::fabs(a.vals[static_cast<std::size_t>(k)]);
        }
        EXPECT_GT(diag, off) << "row " << r;
    }
}

} // namespace
} // namespace mealib::apps
