/**
 * @file
 * Parity and determinism suite for the parallel cache-blocked kernels.
 *
 * Every optimized MiniMKL routine is compared against its naive oracle
 * (or a reference loop written here) across awkward sizes (empty,
 * single-element, sub-tile, tile-straddling, above the parallel cutoff),
 * strides (unit, strided, negative) and thread counts (1, 2, 8). On top
 * of parity, the deterministic reductions must be bit-identical across
 * thread counts and repeated runs — that is the contract that lets the
 * parallel kernels replace the serial ones without perturbing any
 * downstream result.
 */

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "minimkl/blas1.hh"
#include "minimkl/blas2.hh"
#include "minimkl/blas3.hh"
#include "minimkl/compat.hh"
#include "minimkl/fft.hh"
#include "minimkl/naive.hh"
#include "minimkl/sparse.hh"
#include "minimkl/transpose.hh"

namespace mealib::mkl {
namespace {

// Sub-tile, tile-straddling (tile = 32), and above the 1<<15 cutoff.
const std::int64_t kSizes[] = {0, 1, 7, 33, 100, (1 << 15) + 17};
const int kThreadCounts[] = {1, 2, 8};
const std::int64_t kStrides[] = {1, 2, -1, -3};

std::vector<float>
randomVec(std::int64_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(static_cast<std::size_t>(n));
    for (auto &x : v)
        x = rng.uniform(-1.0f, 1.0f);
    return v;
}

std::vector<cfloat>
randomCVec(std::int64_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<cfloat> v(static_cast<std::size_t>(n));
    for (auto &x : v)
        x = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};
    return v;
}

/** BLAS convention: with negative stride the vector starts at the end. */
std::int64_t
startIndex(std::int64_t n, std::int64_t inc)
{
    return inc >= 0 ? 0 : (1 - n) * inc;
}

/** Elements a strided vector of n logical entries spans. */
std::int64_t
spanFor(std::int64_t n, std::int64_t inc)
{
    return n > 0 ? 1 + (n - 1) * std::llabs(inc) : 0;
}

/** Fixture that restores the global tuning after each test. */
class KernelParityTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        saved_ = kernelTuning();
    }

    void
    TearDown() override
    {
        kernelTuning() = saved_;
    }

    KernelTuning saved_;
};

// --- BLAS-1 parity ----------------------------------------------------------

// Map parity is checked two ways: near-equality against a reference
// loop compiled in this translation unit (the library may legitimately
// differ by one rounding when the compiler contracts a*x+y to an FMA),
// and bit-identity between the single-thread and multi-thread runs of
// the library itself — that is the determinism contract.

TEST_F(KernelParityTest, SaxpyMatchesReferenceAcrossShapes)
{
    for (std::int64_t n : kSizes) {
        for (std::int64_t incx : kStrides) {
            for (std::int64_t incy : kStrides) {
                auto x = randomVec(spanFor(n, incx), 1);
                auto y0 = randomVec(spanFor(n, incy), 2);
                auto expect = y0;
                std::int64_t ix = startIndex(n, incx);
                std::int64_t iy = startIndex(n, incy);
                for (std::int64_t i = 0; i < n;
                     ++i, ix += incx, iy += incy)
                    expect[static_cast<std::size_t>(iy)] +=
                        0.75f * x[static_cast<std::size_t>(ix)];

                kernelTuning().numThreads = 1;
                auto ref = y0;
                saxpy(n, 0.75f, x.data(), incx, ref.data(), incy);
                for (std::size_t i = 0; i < ref.size(); ++i)
                    ASSERT_NEAR(ref[i], expect[i],
                                1e-6 * (std::fabs(expect[i]) + 1.0f))
                        << "n=" << n << " incx=" << incx
                        << " incy=" << incy;

                for (int threads : {2, 8}) {
                    kernelTuning().numThreads = threads;
                    auto y = y0;
                    saxpy(n, 0.75f, x.data(), incx, y.data(), incy);
                    ASSERT_EQ(y, ref)
                        << "n=" << n << " incx=" << incx
                        << " incy=" << incy << " threads=" << threads;
                }
            }
        }
    }
}

TEST_F(KernelParityTest, SaxpbyMatchesReferenceAcrossShapes)
{
    for (std::int64_t n : kSizes) {
        for (std::int64_t incx : kStrides) {
            for (std::int64_t incy : kStrides) {
                auto x = randomVec(spanFor(n, incx), 3);
                auto y0 = randomVec(spanFor(n, incy), 4);
                auto expect = y0;
                std::int64_t ix = startIndex(n, incx);
                std::int64_t iy = startIndex(n, incy);
                for (std::int64_t i = 0; i < n;
                     ++i, ix += incx, iy += incy) {
                    auto &e = expect[static_cast<std::size_t>(iy)];
                    e = 0.5f * x[static_cast<std::size_t>(ix)] -
                        2.0f * e;
                }

                kernelTuning().numThreads = 1;
                auto ref = y0;
                saxpby(n, 0.5f, x.data(), incx, -2.0f, ref.data(),
                       incy);
                for (std::size_t i = 0; i < ref.size(); ++i)
                    ASSERT_NEAR(ref[i], expect[i],
                                1e-6 * (std::fabs(expect[i]) + 1.0f))
                        << "n=" << n << " incx=" << incx
                        << " incy=" << incy;

                for (int threads : {2, 8}) {
                    kernelTuning().numThreads = threads;
                    auto y = y0;
                    saxpby(n, 0.5f, x.data(), incx, -2.0f, y.data(),
                           incy);
                    ASSERT_EQ(y, ref)
                        << "n=" << n << " incx=" << incx
                        << " incy=" << incy << " threads=" << threads;
                }
            }
        }
    }
}

TEST_F(KernelParityTest, ScalCopyMatchReferenceAcrossShapes)
{
    for (int threads : kThreadCounts) {
        kernelTuning().numThreads = threads;
        for (std::int64_t n : kSizes) {
            for (std::int64_t inc : kStrides) {
                auto x = randomVec(spanFor(n, inc), 5);
                auto expect = x;
                std::int64_t ix = startIndex(n, inc);
                for (std::int64_t i = 0; i < n; ++i, ix += inc)
                    expect[static_cast<std::size_t>(ix)] *= 1.25f;
                sscal(n, 1.25f, x.data(), inc);
                ASSERT_EQ(x, expect) << "n=" << n << " inc=" << inc;

                auto src = randomVec(spanFor(n, inc), 6);
                std::vector<float> dst(static_cast<std::size_t>(
                                           spanFor(n, 2)),
                                       -7.0f);
                scopy(n, src.data(), inc, dst.data(), 2);
                std::int64_t is = startIndex(n, inc);
                for (std::int64_t i = 0; i < n; ++i, is += inc)
                    ASSERT_EQ(dst[static_cast<std::size_t>(2 * i)],
                              src[static_cast<std::size_t>(is)]);
            }
        }
    }
}

TEST_F(KernelParityTest, ReductionsMatchOracleAcrossShapes)
{
    for (int threads : kThreadCounts) {
        kernelTuning().numThreads = threads;
        for (std::int64_t n : kSizes) {
            for (std::int64_t inc : kStrides) {
                auto x = randomVec(spanFor(n, inc), 7);
                auto y = randomVec(spanFor(n, inc), 8);

                double dot = 0.0, asum = 0.0, ssq = 0.0;
                std::int64_t ix = startIndex(n, inc);
                for (std::int64_t i = 0; i < n; ++i, ix += inc) {
                    auto xi = static_cast<double>(
                        x[static_cast<std::size_t>(ix)]);
                    auto yi = static_cast<double>(
                        y[static_cast<std::size_t>(ix)]);
                    dot += xi * yi;
                    asum += std::fabs(xi);
                    ssq += xi * xi;
                }
                const double tol = 1e-5 * (static_cast<double>(n) + 1.0);
                EXPECT_NEAR(sdot(n, x.data(), inc, y.data(), inc), dot,
                            tol)
                    << "n=" << n << " inc=" << inc;
                EXPECT_NEAR(sasum(n, x.data(), inc), asum, tol);
                EXPECT_NEAR(snrm2(n, x.data(), inc), std::sqrt(ssq),
                            1e-5 * (std::sqrt(ssq) + 1.0));
            }
        }
    }
}

TEST_F(KernelParityTest, ComplexDotsMatchOracle)
{
    for (int threads : kThreadCounts) {
        kernelTuning().numThreads = threads;
        for (std::int64_t n : kSizes) {
            auto x = randomCVec(n, 9);
            auto y = randomCVec(n, 10);
            std::complex<double> conj{}, unconj{};
            for (std::int64_t i = 0; i < n; ++i) {
                std::complex<double> xi{x[static_cast<std::size_t>(i)]
                                            .real(),
                                        x[static_cast<std::size_t>(i)]
                                            .imag()};
                std::complex<double> yi{y[static_cast<std::size_t>(i)]
                                            .real(),
                                        y[static_cast<std::size_t>(i)]
                                            .imag()};
                conj += std::conj(xi) * yi;
                unconj += xi * yi;
            }
            const double tol = 1e-5 * (static_cast<double>(n) + 1.0);
            cfloat c = cdotc(n, x.data(), 1, y.data(), 1);
            cfloat u = cdotu(n, x.data(), 1, y.data(), 1);
            EXPECT_NEAR(c.real(), conj.real(), tol) << "n=" << n;
            EXPECT_NEAR(c.imag(), conj.imag(), tol);
            EXPECT_NEAR(u.real(), unconj.real(), tol);
            EXPECT_NEAR(u.imag(), unconj.imag(), tol);
        }
    }
}

// --- saxpby null-x leniency (MKL-observed behaviour) ------------------------

TEST_F(KernelParityTest, SaxpbyZeroAlphaIgnoresX)
{
    std::vector<float> y{1.0f, 2.0f, 3.0f, 4.0f};
    saxpby(4, 0.0f, nullptr, 0, 2.0f, y.data(), 1);
    EXPECT_EQ(y, (std::vector<float>{2.0f, 4.0f, 6.0f, 8.0f}));

    // b == 1 with a == 0 is a no-op and must not touch either pointer.
    saxpby(4, 0.0f, nullptr, 0, 1.0f, y.data(), 1);
    EXPECT_EQ(y, (std::vector<float>{2.0f, 4.0f, 6.0f, 8.0f}));

    // n <= 0 never dereferences anything.
    saxpby(0, 1.0f, nullptr, 1, 2.0f, nullptr, 1);
    saxpby(-3, 1.0f, nullptr, 1, 2.0f, nullptr, 1);
}

TEST_F(KernelParityTest, SaxpbyNonzeroAlphaStillValidatesStride)
{
    std::vector<float> x{1.0f};
    std::vector<float> y{1.0f};
    EXPECT_THROW(saxpby(1, 2.0f, x.data(), 0, 1.0f, y.data(), 1),
                 FatalError);
    EXPECT_THROW(saxpby(1, 0.0f, nullptr, 1, 2.0f, y.data(), 0),
                 FatalError);
}

// --- determinism: bit-identical across thread counts and runs ---------------

TEST_F(KernelParityTest, ReductionsBitIdenticalAcrossThreadCounts)
{
    // Large enough to clear the parallel cutoff and span many chunks.
    const std::int64_t n = (1 << 17) + 321;
    auto x = randomVec(n, 11);
    auto y = randomVec(n, 12);

    kernelTuning().numThreads = 1;
    const float dotRef = sdot(n, x.data(), 1, y.data(), 1);
    const float nrmRef = snrm2(n, x.data(), 1);
    const float asumRef = sasum(n, x.data(), 1);
    const cfloat cdotRef = [&] {
        auto cx = randomCVec(n, 13);
        auto cy = randomCVec(n, 14);
        return cdotc(n, cx.data(), 1, cy.data(), 1);
    }();

    auto cx = randomCVec(n, 13);
    auto cy = randomCVec(n, 14);
    for (int threads : kThreadCounts) {
        kernelTuning().numThreads = threads;
        for (int run = 0; run < 3; ++run) {
            float d = sdot(n, x.data(), 1, y.data(), 1);
            float r = snrm2(n, x.data(), 1);
            float s = sasum(n, x.data(), 1);
            cfloat c = cdotc(n, cx.data(), 1, cy.data(), 1);
            // Bitwise comparison: determinism means identical bits, not
            // merely close values.
            EXPECT_EQ(std::memcmp(&d, &dotRef, sizeof d), 0)
                << "threads=" << threads << " run=" << run;
            EXPECT_EQ(std::memcmp(&r, &nrmRef, sizeof r), 0);
            EXPECT_EQ(std::memcmp(&s, &asumRef, sizeof s), 0);
            EXPECT_EQ(std::memcmp(&c, &cdotRef, sizeof c), 0);
        }
    }
}

TEST_F(KernelParityTest, ReductionResultIndependentOfCutoff)
{
    // Forcing the parallel path (cutoff 0) must not change the bits
    // either: the serial path uses the same chunked tree.
    const std::int64_t n = (1 << 16) + 5;
    auto x = randomVec(n, 15);
    auto y = randomVec(n, 16);

    kernelTuning().numThreads = 1;
    const float ref = sdot(n, x.data(), 1, y.data(), 1);
    kernelTuning().numThreads = 8;
    kernelTuning().parallelCutoff = 0;
    float got = sdot(n, x.data(), 1, y.data(), 1);
    EXPECT_EQ(std::memcmp(&got, &ref, sizeof got), 0);
}

// --- BLAS-2 / sparse parity -------------------------------------------------

TEST_F(KernelParityTest, SgemvMatchesNaiveAcrossThreadCounts)
{
    const std::int64_t dims[] = {1, 7, 33, 300};
    for (int threads : kThreadCounts) {
        kernelTuning().numThreads = threads;
        kernelTuning().parallelCutoff = 1; // force the parallel path
        for (std::int64_t m : dims) {
            for (std::int64_t n : dims) {
                auto a = randomVec(m * n, 17);
                auto x = randomVec(n, 18);
                std::vector<float> y(static_cast<std::size_t>(m));
                std::vector<float> expect(static_cast<std::size_t>(m));
                naive::sgemv(m, n, a.data(), n, x.data(), expect.data());
                sgemv(Order::RowMajor, Transpose::NoTrans, m, n, 1.0f,
                      a.data(), n, x.data(), 1, 0.0f, y.data(), 1);
                for (std::int64_t i = 0; i < m; ++i)
                    ASSERT_NEAR(y[static_cast<std::size_t>(i)],
                                expect[static_cast<std::size_t>(i)],
                                1e-4)
                        << "m=" << m << " n=" << n
                        << " threads=" << threads;
            }
        }
    }
}

TEST_F(KernelParityTest, SgemvTransBitIdenticalAcrossThreadCounts)
{
    const std::int64_t m = 257, n = 129;
    auto a = randomVec(m * n, 19);
    auto x = randomVec(m, 20);

    kernelTuning().numThreads = 1;
    kernelTuning().parallelCutoff = 1;
    std::vector<float> ref(static_cast<std::size_t>(n), 0.5f);
    sgemv(Order::RowMajor, Transpose::Trans, m, n, 2.0f, a.data(), n,
          x.data(), 1, 0.25f, ref.data(), 1);

    for (int threads : {2, 8}) {
        kernelTuning().numThreads = threads;
        std::vector<float> y(static_cast<std::size_t>(n), 0.5f);
        sgemv(Order::RowMajor, Transpose::Trans, m, n, 2.0f, a.data(), n,
              x.data(), 1, 0.25f, y.data(), 1);
        ASSERT_EQ(std::memcmp(y.data(), ref.data(),
                              y.size() * sizeof(float)),
                  0)
            << "threads=" << threads;
    }
}

TEST_F(KernelParityTest, CsrgemvMatchesNaiveAcrossThreadCounts)
{
    Rng rng(21);
    CsrMatrix m = randomGeometricGraph(1 << 12, 9.0, rng);
    auto x = randomVec(m.cols, 22);
    std::vector<float> expect(static_cast<std::size_t>(m.rows));
    naive::spmv(m, x.data(), expect.data());

    // Classic 1-based arrays as handed to the MKL shim.
    const int rows = static_cast<int>(m.rows);
    std::vector<int> ia(m.rowPtr.size());
    for (std::size_t i = 0; i < m.rowPtr.size(); ++i)
        ia[i] = static_cast<int>(m.rowPtr[i]) + 1;
    std::vector<int> ja(m.colIdx.size());
    for (std::size_t i = 0; i < m.colIdx.size(); ++i)
        ja[i] = m.colIdx[i] + 1;

    kernelTuning().parallelCutoff = 1;
    std::vector<float> ref;
    for (int threads : kThreadCounts) {
        kernelTuning().numThreads = threads;
        std::vector<float> y(static_cast<std::size_t>(m.rows));
        mkl_scsrgemv("N", &rows, m.vals.data(), ia.data(), ja.data(),
                     x.data(), y.data());
        for (std::int64_t i = 0; i < m.rows; ++i)
            ASSERT_NEAR(y[static_cast<std::size_t>(i)],
                        expect[static_cast<std::size_t>(i)], 1e-4)
                << "row " << i << " threads=" << threads;
        if (ref.empty())
            ref = y;
        else
            // Row partitioning never splits a row, so the per-row sums
            // are bit-identical for every thread count.
            ASSERT_EQ(std::memcmp(y.data(), ref.data(),
                                  y.size() * sizeof(float)),
                      0)
                << "threads=" << threads;
    }

    // Transposed path against a reference scatter.
    auto xt = randomVec(m.rows, 23);
    std::vector<float> expectT(static_cast<std::size_t>(m.cols), 0.0f);
    for (std::int64_t r = 0; r < m.rows; ++r)
        for (std::int64_t k = m.rowPtr[static_cast<std::size_t>(r)];
             k < m.rowPtr[static_cast<std::size_t>(r) + 1]; ++k)
            expectT[static_cast<std::size_t>(
                m.colIdx[static_cast<std::size_t>(k)])] +=
                m.vals[static_cast<std::size_t>(k)] *
                xt[static_cast<std::size_t>(r)];
    std::vector<float> yt(static_cast<std::size_t>(m.cols));
    mkl_scsrgemv("T", &rows, m.vals.data(), ia.data(), ja.data(),
                 xt.data(), yt.data());
    for (std::int64_t i = 0; i < m.cols; ++i)
        ASSERT_NEAR(yt[static_cast<std::size_t>(i)],
                    expectT[static_cast<std::size_t>(i)], 1e-4);
}

// --- transpose parity -------------------------------------------------------

TEST_F(KernelParityTest, TransposeMatchesNaiveAcrossThreadCounts)
{
    const std::int64_t dims[] = {1, 7, 33, 100, 257};
    for (int threads : kThreadCounts) {
        kernelTuning().numThreads = threads;
        kernelTuning().parallelCutoff = 1;
        for (std::int64_t rows : dims) {
            for (std::int64_t cols : dims) {
                auto a = randomVec(rows * cols, 24);
                std::vector<float> expect(a.size());
                naive::transpose(rows, cols, a.data(), expect.data());

                // Out-of-place.
                std::vector<float> b(a.size());
                mkl_somatcopy('R', 'T', static_cast<std::size_t>(rows),
                              static_cast<std::size_t>(cols), 1.0f,
                              a.data(), static_cast<std::size_t>(cols),
                              b.data(), static_cast<std::size_t>(rows));
                ASSERT_EQ(b, expect)
                    << rows << "x" << cols << " threads=" << threads;

                // In-place (square and rectangular paths).
                auto c = a;
                mkl_simatcopy('R', 'T', static_cast<std::size_t>(rows),
                              static_cast<std::size_t>(cols), 1.0f,
                              c.data(), static_cast<std::size_t>(cols),
                              static_cast<std::size_t>(rows));
                ASSERT_EQ(c, expect)
                    << rows << "x" << cols << " threads=" << threads;
            }
        }
    }
}

// --- FFT parity -------------------------------------------------------------

TEST_F(KernelParityTest, BatchedFftMatchesNaiveAndIsThreadInvariant)
{
    const std::int64_t n = 256, batch = 24;
    auto in = randomCVec(n * batch, 25);
    auto plan = FftPlan::dft1dBatched(n, batch, n, FftDirection::Forward);
    kernelTuning().parallelCutoff = 1;

    kernelTuning().numThreads = 1;
    std::vector<cfloat> ref(in.size());
    plan.execute(in.data(), ref.data());

    // Oracle: the recursive radix-2 DFT per batch entry.
    for (std::int64_t b = 0; b < batch; ++b) {
        std::vector<cfloat> expect(static_cast<std::size_t>(n));
        naive::fftRecursive(in.data() + b * n, expect.data(), n, -1);
        for (std::int64_t i = 0; i < n; ++i) {
            ASSERT_NEAR(ref[static_cast<std::size_t>(b * n + i)].real(),
                        expect[static_cast<std::size_t>(i)].real(), 1e-2)
                << "batch " << b << " bin " << i;
            ASSERT_NEAR(ref[static_cast<std::size_t>(b * n + i)].imag(),
                        expect[static_cast<std::size_t>(i)].imag(),
                        1e-2);
        }
    }

    // Thread sweep: batch entries are independent, so results must be
    // bit-identical to the single-thread run.
    for (int threads : {2, 8}) {
        kernelTuning().numThreads = threads;
        std::vector<cfloat> out(in.size());
        plan.execute(in.data(), out.data());
        ASSERT_EQ(std::memcmp(out.data(), ref.data(),
                              out.size() * sizeof(cfloat)),
                  0)
            << "threads=" << threads;
    }
}

// --- BLAS-3 thread invariance ----------------------------------------------

TEST_F(KernelParityTest, Blas3BitIdenticalAcrossThreadCounts)
{
    const std::int64_t n = 96, k = 64;
    auto a = randomCVec(n * k, 26);
    auto b0 = randomCVec(n * n, 27);
    auto tri = randomCVec(n * n, 28);
    // Make the triangular factor well-conditioned.
    for (std::int64_t i = 0; i < n; ++i)
        tri[static_cast<std::size_t>(i * n + i)] += cfloat{4.0f, 0.0f};

    kernelTuning().parallelCutoff = 1;
    kernelTuning().numThreads = 1;
    auto herkRef = b0;
    cherk(Order::RowMajor, Uplo::Lower, Transpose::NoTrans, n, k, 1.5f,
          a.data(), k, 0.5f, herkRef.data(), n);
    auto trsmRef = b0;
    ctrsm(Order::RowMajor, Side::Left, Uplo::Lower, Transpose::NoTrans,
          Diag::NonUnit, n, n, cfloat{1.0f, 0.0f}, tri.data(), n,
          trsmRef.data(), n);

    for (int threads : {2, 8}) {
        kernelTuning().numThreads = threads;
        auto herk = b0;
        cherk(Order::RowMajor, Uplo::Lower, Transpose::NoTrans, n, k,
              1.5f, a.data(), k, 0.5f, herk.data(), n);
        ASSERT_EQ(std::memcmp(herk.data(), herkRef.data(),
                              herk.size() * sizeof(cfloat)),
                  0)
            << "cherk threads=" << threads;

        auto trsm = b0;
        ctrsm(Order::RowMajor, Side::Left, Uplo::Lower,
              Transpose::NoTrans, Diag::NonUnit, n, n,
              cfloat{1.0f, 0.0f}, tri.data(), n, trsm.data(), n);
        ASSERT_EQ(std::memcmp(trsm.data(), trsmRef.data(),
                              trsm.size() * sizeof(cfloat)),
                  0)
            << "ctrsm threads=" << threads;
    }
}

TEST_F(KernelParityTest, SgemmMatchesReferenceAcrossThreadCounts)
{
    const std::int64_t m = 65, n = 33, k = 47;
    auto a = randomVec(m * k, 29);
    auto b = randomVec(k * n, 30);
    auto c0 = randomVec(m * n, 31);

    std::vector<float> expect = c0;
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::int64_t p = 0; p < k; ++p)
                acc += static_cast<double>(
                           a[static_cast<std::size_t>(i * k + p)]) *
                       static_cast<double>(
                           b[static_cast<std::size_t>(p * n + j)]);
            auto &e = expect[static_cast<std::size_t>(i * n + j)];
            e = static_cast<float>(1.5 * acc + 0.5 * e);
        }

    kernelTuning().parallelCutoff = 1;
    std::vector<float> ref;
    for (int threads : kThreadCounts) {
        kernelTuning().numThreads = threads;
        auto c = c0;
        sgemm(Order::RowMajor, Transpose::NoTrans, Transpose::NoTrans, m,
              n, k, 1.5f, a.data(), k, b.data(), n, 0.5f, c.data(), n);
        for (std::int64_t i = 0; i < m * n; ++i)
            ASSERT_NEAR(c[static_cast<std::size_t>(i)],
                        expect[static_cast<std::size_t>(i)], 1e-3)
                << "threads=" << threads;
        if (ref.empty())
            ref = c;
        else
            ASSERT_EQ(std::memcmp(c.data(), ref.data(),
                                  c.size() * sizeof(float)),
                      0)
                << "threads=" << threads;
    }
}

// --- SIMD ISA matrix --------------------------------------------------------

// The portable SIMD layer (common/simd.hh) pins one contract on top of
// parity: every MEALIB_SIMD level, scalar included, runs the same
// fixed 8-lane virtual-vector source, so all levels produce one common
// result at every thread count — the ISA width is invisible.

TEST_F(KernelParityTest, MapsAndReductionsMatchOracleAtEveryIsaLevel)
{
    for (simd::SimdLevel level : simd::availableLevels()) {
        kernelTuning().simd = level;
        // Tail sizes 0..17 exercise every lane-remainder; offsets 0..7
        // exercise every 32-byte misalignment of the float pointers.
        for (std::int64_t n = 0; n <= 17; ++n) {
            for (std::int64_t off = 0; off < 8; ++off) {
                auto xb = randomVec(n + off, 40 + n * 8 + off);
                auto yb = randomVec(n + off, 80 + n * 8 + off);
                const float *x = xb.data() + off;

                std::vector<float> expect(
                    yb.begin() + static_cast<std::ptrdiff_t>(off),
                    yb.end());
                double dot = 0.0, asum = 0.0;
                for (std::int64_t i = 0; i < n; ++i) {
                    expect[static_cast<std::size_t>(i)] +=
                        0.75f * x[i];
                    dot += static_cast<double>(x[i]) *
                           static_cast<double>(
                               yb[static_cast<std::size_t>(off + i)]);
                    asum += std::fabs(static_cast<double>(x[i]));
                }

                auto yc = yb;
                saxpy(n, 0.75f, x, 1, yc.data() + off, 1);
                for (std::int64_t i = 0; i < n; ++i)
                    ASSERT_NEAR(yc[static_cast<std::size_t>(off + i)],
                                expect[static_cast<std::size_t>(i)],
                                1e-6)
                        << simd::name(level) << " n=" << n
                        << " off=" << off;

                const double tol = 1e-5 * (static_cast<double>(n) + 1.0);
                EXPECT_NEAR(sdot(n, x, 1, yb.data() + off, 1), dot, tol)
                    << simd::name(level) << " n=" << n << " off=" << off;
                EXPECT_NEAR(sasum(n, x, 1), asum, tol)
                    << simd::name(level) << " n=" << n << " off=" << off;
            }
        }
        // Strided calls take the plain loops.
        auto x = randomVec(201, 90);
        auto y = randomVec(201, 91);
        double dot2 = 0.0;
        for (std::int64_t i = 0; i < 100; ++i)
            dot2 += static_cast<double>(
                        x[static_cast<std::size_t>(2 * i)]) *
                    static_cast<double>(
                        y[static_cast<std::size_t>(2 * i)]);
        EXPECT_NEAR(sdot(100, x.data(), 2, y.data(), 2), dot2, 1e-4)
            << simd::name(level);
    }
}

TEST_F(KernelParityTest, MatrixKernelsMatchNaiveAtEveryIsaLevel)
{
    const std::int64_t dims[] = {1, 7, 30, 65};
    for (simd::SimdLevel level : simd::availableLevels()) {
        kernelTuning().simd = level;
        for (std::int64_t m : dims) {
            for (std::int64_t n : dims) {
                auto a = randomVec(m * n, 100 + m);
                auto x = randomVec(n, 101 + n);
                std::vector<float> y(static_cast<std::size_t>(m));
                std::vector<float> expect(static_cast<std::size_t>(m));
                naive::sgemv(m, n, a.data(), n, x.data(), expect.data());
                sgemv(Order::RowMajor, Transpose::NoTrans, m, n, 1.0f,
                      a.data(), n, x.data(), 1, 0.0f, y.data(), 1);
                for (std::int64_t i = 0; i < m; ++i)
                    ASSERT_NEAR(y[static_cast<std::size_t>(i)],
                                expect[static_cast<std::size_t>(i)],
                                1e-4)
                        << simd::name(level) << " " << m << "x" << n;

                std::vector<float> bt(a.size());
                std::vector<float> tExpect(a.size());
                naive::transpose(m, n, a.data(), tExpect.data());
                somatcopy(Order::RowMajor, Transpose::Trans, m, n, 1.0f,
                          a.data(), n, bt.data(), m);
                ASSERT_EQ(bt, tExpect)
                    << simd::name(level) << " " << m << "x" << n;

                auto c = a;
                simatcopy(Order::RowMajor, Transpose::Trans, m, n, 1.0f,
                          c.data(), n, m);
                ASSERT_EQ(c, tExpect)
                    << simd::name(level) << " " << m << "x" << n;
            }
        }

        // FFT: the butterfly kernel against the recursive oracle.
        const std::int64_t fn = 128;
        auto in = randomCVec(fn, 110);
        std::vector<cfloat> out(in.size());
        FftPlan::dft1d(fn, FftDirection::Forward).execute(in.data(),
                                                          out.data());
        std::vector<cfloat> expect(in.size());
        naive::fftRecursive(in.data(), expect.data(), fn, -1);
        for (std::int64_t i = 0; i < fn; ++i) {
            ASSERT_NEAR(out[static_cast<std::size_t>(i)].real(),
                        expect[static_cast<std::size_t>(i)].real(), 1e-2)
                << simd::name(level) << " bin " << i;
            ASSERT_NEAR(out[static_cast<std::size_t>(i)].imag(),
                        expect[static_cast<std::size_t>(i)].imag(), 1e-2)
                << simd::name(level) << " bin " << i;
        }
    }
}

/** One kernel call's output, as raw bytes. */
struct Output
{
    const char *op;
    std::vector<unsigned char> bytes;
};

template <typename T>
Output
bytesOf(const char *op, const std::vector<T> &v)
{
    const auto *p = reinterpret_cast<const unsigned char *>(v.data());
    return {op, std::vector<unsigned char>(p, p + v.size() * sizeof(T))};
}

template <typename T>
Output
bytesOf(const char *op, const T &value)
{
    return bytesOf(op, std::vector<T>{value});
}

TEST_F(KernelParityTest, VectorIsaLevelsBitIdenticalAcrossThreads)
{
    // Every entry of the kernel table, at every level and thread count,
    // must produce the same bytes. A cutoff of 1 fans the matrix kernels
    // out too; the odd sizes leave lane tails inside every chunk.
    kernelTuning().parallelCutoff = 1;
    const std::int64_t n = (1 << 16) + 13;
    auto x = randomVec(n, 130);
    auto y = randomVec(n, 131);
    auto cx = randomCVec(n, 134);
    auto cy = randomCVec(n, 135);
    const std::int64_t dim = 99;
    auto a = randomVec(dim * dim, 132);
    auto ca = randomCVec(dim * dim, 136);
    auto fin = randomCVec(256, 133);
    // Rows average 41 nonzeros, so they fall on both sides of the
    // 32-nonzero CSR gather cutoff.
    Rng rng(137);
    const CsrMatrix rgg = randomGeometricGraph(2000, 41.0, rng);

    auto run = [&] {
        std::vector<Output> out;
        out.push_back(bytesOf("sdot", sdot(n, x.data(), 1, y.data(), 1)));
        out.push_back(bytesOf("snrm2", snrm2(n, x.data(), 1)));
        out.push_back(bytesOf("sasum", sasum(n, x.data(), 1)));
        out.push_back(
            bytesOf("cdotc", cdotc(n, cx.data(), 1, cy.data(), 1)));
        out.push_back(
            bytesOf("cdotu", cdotu(n, cx.data(), 1, cy.data(), 1)));
        auto v = y;
        saxpy(n, 1.25f, x.data(), 1, v.data(), 1);
        out.push_back(bytesOf("saxpy", v));
        v = y;
        saxpby(n, 1.25f, x.data(), 1, -0.5f, v.data(), 1);
        out.push_back(bytesOf("saxpby", v));
        v = y;
        sscal(n, 0.3f, v.data(), 1);
        out.push_back(bytesOf("sscal", v));
        scopy(n, x.data(), 1, v.data(), 1);
        out.push_back(bytesOf("scopy", v));
        auto cv = cy;
        caxpy(n, {0.7f, -1.3f}, cx.data(), 1, cv.data(), 1);
        out.push_back(bytesOf("caxpy", cv));

        std::vector<float> gy(static_cast<std::size_t>(dim));
        std::vector<float> m(a.size());
        for (Transpose t : {Transpose::NoTrans, Transpose::Trans}) {
            const bool nt = t == Transpose::NoTrans;
            sgemv(Order::RowMajor, t, dim, dim, 1.0f, a.data(), dim,
                  x.data(), 1, 0.0f, gy.data(), 1);
            out.push_back(bytesOf(nt ? "sgemv N" : "sgemv T", gy));
            somatcopy(Order::RowMajor, t, dim, dim, 0.5f, a.data(), dim,
                      m.data(), dim);
            out.push_back(bytesOf(nt ? "somatcopy N" : "somatcopy T", m));
        }
        sgemm(Order::RowMajor, Transpose::NoTrans, Transpose::NoTrans, dim,
              dim, dim, 1.0f, a.data(), dim, a.data(), dim, 0.0f,
              m.data(), dim);
        out.push_back(bytesOf("sgemm", m));
        std::vector<cfloat> h(ca.size());
        cherk(Order::RowMajor, Uplo::Upper, Transpose::NoTrans, dim, dim,
              1.0f, ca.data(), dim, 0.0f, h.data(), dim);
        out.push_back(bytesOf("cherk", h));
        m = a;
        simatcopy(Order::RowMajor, Transpose::Trans, dim, dim, 0.5f,
                  m.data(), dim, dim);
        out.push_back(bytesOf("simatcopy", m));
        std::vector<float> sy(static_cast<std::size_t>(rgg.rows));
        scsrmv(rgg, x.data(), sy.data());
        out.push_back(bytesOf("scsrmv", sy));
        std::vector<cfloat> fout(fin.size());
        FftPlan::dft1d(256, FftDirection::Forward)
            .execute(fin.data(), fout.data());
        out.push_back(bytesOf("fft", fout));
        return out;
    };

    std::vector<Output> ref;
    for (simd::SimdLevel level : simd::availableLevels()) {
        kernelTuning().simd = level;
        for (int threads : kThreadCounts) {
            kernelTuning().numThreads = threads;
            std::vector<Output> got = run();
            if (ref.empty()) {
                ref = std::move(got);
                continue;
            }
            ASSERT_EQ(got.size(), ref.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
                ASSERT_EQ(got[i].bytes.size(), ref[i].bytes.size());
                EXPECT_EQ(std::memcmp(got[i].bytes.data(),
                                      ref[i].bytes.data(),
                                      got[i].bytes.size()),
                          0)
                    << got[i].op << " at " << simd::name(level) << " x "
                    << threads << " threads";
            }
        }
    }
}

TEST_F(KernelParityTest, SimdLevelResolutionClampsToDetected)
{
    // Requests above what the machine (or build) supports clamp down,
    // never up; scalar always resolves to scalar.
    EXPECT_EQ(simd::resolveLevel(simd::SimdLevel::Scalar),
              simd::SimdLevel::Scalar);
    simd::SimdLevel detected = simd::detectedLevel();
    EXPECT_LE(static_cast<int>(simd::resolveLevel(simd::SimdLevel::Auto)),
              static_cast<int>(detected));
    EXPECT_EQ(simd::resolveLevel(simd::SimdLevel::Auto), detected);
    // Every advertised level resolves to its own kernel table.
    std::vector<const simd::Kernels *> tables;
    for (simd::SimdLevel level : simd::availableLevels()) {
        const simd::Kernels *t = &simd::tableFor(level);
        for (const simd::Kernels *seen : tables)
            EXPECT_NE(t, seen) << simd::name(level);
        tables.push_back(t);
    }
}

TEST_F(KernelParityTest, EveryLevelHasACompleteKernelTable)
{
    // The kernels call through the table with no fallback loop, so every
    // level a request can resolve to, scalar and auto included, must
    // fill every entry, and active() must follow the tuning.
    static_assert(sizeof(simd::Kernels) == 13 * sizeof(void (*)()),
                  "list every Kernels entry below");
    for (int l = 0; l <= static_cast<int>(simd::SimdLevel::Auto); ++l) {
        const auto level = static_cast<simd::SimdLevel>(l);
        const simd::Kernels &k = simd::tableFor(level);
        const bool filled[] = {
            k.saxpy != nullptr,        k.saxpby != nullptr,
            k.sscal != nullptr,        k.scopy != nullptr,
            k.scopyScale != nullptr,   k.caxpy != nullptr,
            k.sdot != nullptr,         k.sasum != nullptr,
            k.slassq != nullptr,       k.cdot != nullptr,
            k.csrdot != nullptr,       k.fftButterfly != nullptr,
            k.somatTile != nullptr};
        for (std::size_t i = 0; i < sizeof filled / sizeof filled[0]; ++i)
            EXPECT_TRUE(filled[i]) << simd::name(level) << " entry " << i;
        kernelTuning().simd = level;
        EXPECT_EQ(&simd::active(), &k) << simd::name(level);
    }
}

TEST_F(KernelParityTest, TuningEnvironmentSelectsThreadsAndLevelOnly)
{
    // Only MEALIB_NUM_THREADS and MEALIB_SIMD are read. The reduction
    // chunk, tile and block sizes are constants of the summation order,
    // and the parallel cutoff is set from code, so the variables that
    // once named them must change nothing.
    const char *const vars[][2] = {{"MEALIB_NUM_THREADS", "3"},
                                   {"MEALIB_SIMD", "scalar"},
                                   {"MEALIB_PARALLEL_CUTOFF", "1"},
                                   {"MEALIB_REDUCE_CHUNK", "7"},
                                   {"MEALIB_TILE", "5"},
                                   {"MEALIB_GEMM_BLOCK", "5"}};
    std::vector<std::pair<const char *, std::string>> saved;
    for (const auto &v : vars) {
        if (const char *old = std::getenv(v[0]))
            saved.emplace_back(v[0], old);
        setenv(v[0], v[1], 1);
    }
    const KernelTuning t = KernelTuning::fromEnv();
    for (const auto &v : vars)
        unsetenv(v[0]);
    for (const auto &[var, value] : saved)
        setenv(var, value.c_str(), 1);

    EXPECT_EQ(t.numThreads, 3);
    EXPECT_EQ(t.simd, simd::SimdLevel::Scalar);
    EXPECT_EQ(t.parallelCutoff, KernelTuning{}.parallelCutoff);
}

TEST_F(KernelParityTest, TuningEnvironmentKeepsDefaultOnBadValues)
{
    // A set value that does not parse as a whole, or a thread count
    // outside 1-64, keeps the default instead of being truncated or
    // clamped. "1x" and "2x" make sure one truncated prefix differs
    // from the default on any machine.
    const char *const names[] = {"MEALIB_NUM_THREADS", "MEALIB_SIMD"};
    std::vector<std::pair<const char *, std::string>> saved;
    for (const char *n : names) {
        if (const char *old = std::getenv(n))
            saved.emplace_back(n, old);
        unsetenv(n);
    }
    const KernelTuning def = KernelTuning::fromEnv();
    std::vector<std::pair<std::string, int>> threads;
    for (const char *bad : {"4x", "1x", "2x", "0", "65", "abc"}) {
        setenv("MEALIB_NUM_THREADS", bad, 1);
        threads.emplace_back(bad, KernelTuning::fromEnv().numThreads);
    }
    unsetenv("MEALIB_NUM_THREADS");
    setenv("MEALIB_SIMD", "avx3", 1);
    const simd::SimdLevel level = KernelTuning::fromEnv().simd;
    unsetenv("MEALIB_SIMD");
    for (const auto &[var, value] : saved)
        setenv(var, value.c_str(), 1);

    for (const auto &[value, n] : threads)
        EXPECT_EQ(n, def.numThreads) << "MEALIB_NUM_THREADS=" << value;
    EXPECT_EQ(level, simd::SimdLevel::Auto);
}

} // namespace
} // namespace mealib::mkl
