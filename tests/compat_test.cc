// Tests for the MKL/CBLAS/FFTW-named compatibility shims — the exact
// entry points the paper's legacy applications call (Table 1, Listing 1).

#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "dispatch/dispatcher.hh"
#include "minimkl/blas1.hh"
#include "minimkl/blas3.hh"
#include "minimkl/compat.hh"

namespace {

using cfloat = std::complex<float>;
using mealib::dispatch::Dispatcher;
using mealib::dispatch::OpKind;

/** Run @p shim; return the calls the global dispatcher counted under
 * @p kind meanwhile. */
template <typename Fn>
std::uint64_t
callsDuring(OpKind kind, Fn &&shim)
{
    const std::uint64_t before =
        Dispatcher::global().snapshot().of(kind).calls;
    shim();
    return Dispatcher::global().snapshot().of(kind).calls - before;
}

/** @p n deterministic, distinct-enough values. */
template <typename T>
std::vector<T>
ramp(std::size_t n, float scale)
{
    std::vector<T> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = T(scale * (static_cast<float>(i % 7) - 3.0f) + 0.125f);
    return v;
}

template <typename T>
bool
sameBytes(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(CblasShims, SaxpyAndSdot)
{
    std::vector<float> x{1, 2, 3};
    std::vector<float> y{4, 5, 6};
    cblas_saxpy(3, 2.0f, x.data(), 1, y.data(), 1);
    EXPECT_FLOAT_EQ(y[0], 6.0f);
    EXPECT_FLOAT_EQ(y[2], 12.0f);
    EXPECT_FLOAT_EQ(cblas_sdot(3, x.data(), 1, x.data(), 1), 14.0f);
}

TEST(CblasShims, SgemvRowMajor)
{
    std::vector<float> a{1, 2, 3, 4};
    std::vector<float> x{1, 1};
    std::vector<float> y(2, 0.0f);
    cblas_sgemv(CblasRowMajor, CblasNoTrans, 2, 2, 1.0f, a.data(), 2,
                x.data(), 1, 0.0f, y.data(), 1);
    EXPECT_FLOAT_EQ(y[0], 3.0f);
    EXPECT_FLOAT_EQ(y[1], 7.0f);
}

TEST(CblasShims, CdotcSubWritesResult)
{
    std::vector<cfloat> x{{0, 1}, {1, 0}};
    std::vector<cfloat> y{{0, 1}, {1, 0}};
    cfloat d{99, 99};
    cblas_cdotc_sub(2, x.data(), 1, y.data(), 1, &d);
    EXPECT_FLOAT_EQ(d.real(), 2.0f);
    EXPECT_FLOAT_EQ(d.imag(), 0.0f);
}

TEST(CblasShims, CherkUpperTriangleOnly)
{
    // A = [[1, i]]^T-ish: use 2x1 so C = A*A^H is 2x2.
    std::vector<cfloat> a{{1, 0}, {0, 1}};
    std::vector<cfloat> c(4, cfloat{9, 9});
    cblas_cherk(CblasRowMajor, CblasUpper, CblasNoTrans, 2, 1, 1.0f,
                a.data(), 1, 0.0f, c.data(), 2);
    EXPECT_FLOAT_EQ(c[0].real(), 1.0f);
    EXPECT_FLOAT_EQ(c[1].imag(), -1.0f); // 1 * conj(i)
    EXPECT_FLOAT_EQ(c[3].real(), 1.0f);
    EXPECT_FLOAT_EQ(c[2].real(), 9.0f); // lower triangle untouched
}

TEST(CblasShims, CtrsmSolvesDiagonalSystem)
{
    std::vector<cfloat> a{{2, 0}, {0, 0}, {0, 0}, {4, 0}};
    std::vector<cfloat> b{{2, 0}, {4, 0}, {8, 0}, {16, 0}};
    cfloat alpha{1, 0};
    cblas_ctrsm(CblasRowMajor, CblasLeft, CblasLower, CblasNoTrans,
                CblasNonUnit, 2, 2, &alpha, a.data(), 2, b.data(), 2);
    EXPECT_FLOAT_EQ(b[0].real(), 1.0f);
    EXPECT_FLOAT_EQ(b[1].real(), 2.0f);
    EXPECT_FLOAT_EQ(b[2].real(), 2.0f);
    EXPECT_FLOAT_EQ(b[3].real(), 4.0f);
}

// The shims below have no caller in the repo's apps: each must produce
// the bytes of the mkl:: kernel it wraps (non-unit strides where the API
// has them) and count one dispatch under its kind.

TEST(CblasShims, CaxpyMatchesKernelAndCountsAxpy)
{
    const std::vector<cfloat> x = ramp<cfloat>(8, 0.5f);
    std::vector<cfloat> y = ramp<cfloat>(12, -0.25f);
    std::vector<cfloat> want = y;
    const cfloat a{0.5f, -1.25f};
    mealib::mkl::caxpy(4, a, x.data(), 2, want.data(), 3);
    EXPECT_EQ(callsDuring(OpKind::Axpy, [&] {
                  cblas_caxpy(4, &a, x.data(), 2, y.data(), 3);
              }),
              1u);
    EXPECT_TRUE(sameBytes(y, want));
}

TEST(CblasShims, SaxpbyMatchesKernelAndCountsAxpy)
{
    const std::vector<float> x = ramp<float>(10, 0.5f);
    std::vector<float> y = ramp<float>(15, -0.25f);
    std::vector<float> want = y;
    mealib::mkl::saxpby(5, 1.5f, x.data(), 2, 0.75f, want.data(), 3);
    EXPECT_EQ(callsDuring(OpKind::Axpy, [&] {
                  cblas_saxpby(5, 1.5f, x.data(), 2, 0.75f, y.data(), 3);
              }),
              1u);
    EXPECT_TRUE(sameBytes(y, want));
}

TEST(CblasShims, ScopyMatchesKernelAndCountsCopy)
{
    const std::vector<float> x = ramp<float>(18, 0.5f);
    std::vector<float> y(12, -7.0f);
    std::vector<float> want = y;
    mealib::mkl::scopy(6, x.data(), 3, want.data(), 2);
    EXPECT_EQ(callsDuring(OpKind::Copy,
                          [&] { cblas_scopy(6, x.data(), 3, y.data(), 2); }),
              1u);
    EXPECT_TRUE(sameBytes(y, want));
}

TEST(CblasShims, SgemmMatchesKernelAndCountsGemm)
{
    // 3x5 times 5x4 with every leading dimension padded past its row.
    const std::vector<float> a = ramp<float>(3 * 7, 0.5f);
    const std::vector<float> b = ramp<float>(5 * 5, -0.75f);
    std::vector<float> c = ramp<float>(3 * 7, 0.25f);
    std::vector<float> want = c;
    mealib::mkl::sgemm(mealib::mkl::Order::RowMajor,
                       mealib::mkl::Transpose::NoTrans,
                       mealib::mkl::Transpose::NoTrans, 3, 4, 5, 0.5f,
                       a.data(), 7, b.data(), 5, 0.25f, want.data(), 7);
    EXPECT_EQ(callsDuring(OpKind::Gemm, [&] {
                  cblas_sgemm(CblasRowMajor, CblasNoTrans, CblasNoTrans, 3,
                              4, 5, 0.5f, a.data(), 7, b.data(), 5, 0.25f,
                              c.data(), 7);
              }),
              1u);
    EXPECT_TRUE(sameBytes(c, want));
}

TEST(CblasShims, SscalMatchesKernelAndCountsScal)
{
    std::vector<float> x = ramp<float>(10, 0.5f);
    std::vector<float> want = x;
    mealib::mkl::sscal(5, -1.5f, want.data(), 2);
    EXPECT_EQ(callsDuring(OpKind::Scal,
                          [&] { cblas_sscal(5, -1.5f, x.data(), 2); }),
              1u);
    EXPECT_TRUE(sameBytes(x, want));
}

TEST(MklShims, ScsrgemvOneBasedIndexing)
{
    // [[2, 0], [1, 3]] in classic 1-based CSR.
    std::vector<float> vals{2.0f, 1.0f, 3.0f};
    std::vector<int> ia{1, 2, 4};
    std::vector<int> ja{1, 1, 2};
    std::vector<float> x{10.0f, 100.0f};
    std::vector<float> y(2, 0.0f);
    int m = 2;
    mkl_scsrgemv("N", &m, vals.data(), ia.data(), ja.data(), x.data(),
                 y.data());
    EXPECT_FLOAT_EQ(y[0], 20.0f);
    EXPECT_FLOAT_EQ(y[1], 310.0f);
}

TEST(MklShims, ScsrgemvTranspose)
{
    std::vector<float> vals{2.0f, 1.0f, 3.0f};
    std::vector<int> ia{1, 2, 4};
    std::vector<int> ja{1, 1, 2};
    std::vector<float> x{1.0f, 1.0f};
    std::vector<float> y(2, 0.0f);
    int m = 2;
    mkl_scsrgemv("T", &m, vals.data(), ia.data(), ja.data(), x.data(),
                 y.data());
    EXPECT_FLOAT_EQ(y[0], 3.0f); // column 0: 2 + 1
    EXPECT_FLOAT_EQ(y[1], 3.0f); // column 1: 3
}

TEST(MklShims, ScsrgemvOverwritesPoisonedOutput)
{
    // Implicit beta == 0: y must be a pure write, never read, in both
    // the direct and the transposed walk.
    std::vector<float> vals{2.0f, 1.0f, 3.0f};
    std::vector<int> ia{1, 2, 4};
    std::vector<int> ja{1, 1, 2};
    std::vector<float> x{10.0f, 100.0f};
    std::vector<float> y{std::nanf(""), std::nanf("")};
    int m = 2;
    mkl_scsrgemv("N", &m, vals.data(), ia.data(), ja.data(), x.data(),
                 y.data());
    EXPECT_FLOAT_EQ(y[0], 20.0f);
    EXPECT_FLOAT_EQ(y[1], 310.0f);

    y.assign({std::nanf(""), std::nanf("")});
    mkl_scsrgemv("T", &m, vals.data(), ia.data(), ja.data(), x.data(),
                 y.data());
    EXPECT_FLOAT_EQ(y[0], 2.0f * 10.0f + 1.0f * 100.0f);
    EXPECT_FLOAT_EQ(y[1], 3.0f * 100.0f);
}

TEST(MklShims, SimatcopyTransposesInPlace)
{
    std::vector<float> a{1, 2, 3, 4};
    mkl_simatcopy('R', 'T', 2, 2, 1.0f, a.data(), 2, 2);
    EXPECT_FLOAT_EQ(a[1], 3.0f);
    EXPECT_FLOAT_EQ(a[2], 2.0f);
}

TEST(MklShims, DfsInterpolate1D)
{
    std::vector<float> x{0.0f, 2.0f, 4.0f};
    std::vector<float> site(5);
    EXPECT_EQ(dfsInterpolate1D(x.data(), 3, site.data(), 5), 0);
    EXPECT_FLOAT_EQ(site[1], 1.0f);
    EXPECT_FLOAT_EQ(site[3], 3.0f);
    EXPECT_EQ(dfsInterpolate1D(nullptr, 3, site.data(), 5), -1);
}

TEST(FftwShims, PlanExecuteDestroyRoundTrip)
{
    const int n = 64;
    std::vector<cfloat> in(n), freq(n), back(n);
    mealib::Rng rng(5);
    for (auto &v : in)
        v = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};

    fftwf_iodim dim{n, 1, 1};
    fftwf_plan fwd = fftwf_plan_guru_dft(
        1, &dim, 0, nullptr, reinterpret_cast<fftwf_complex *>(in.data()),
        reinterpret_cast<fftwf_complex *>(freq.data()), FFTW_FORWARD,
        FFTW_WISDOM_ONLY);
    fftwf_plan bwd = fftwf_plan_guru_dft(
        1, &dim, 0, nullptr,
        reinterpret_cast<fftwf_complex *>(freq.data()),
        reinterpret_cast<fftwf_complex *>(back.data()), FFTW_BACKWARD,
        FFTW_WISDOM_ONLY);
    fftwf_execute(fwd);
    fftwf_execute(bwd);
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(std::abs(back[static_cast<std::size_t>(i)] /
                                 static_cast<float>(n) -
                             in[static_cast<std::size_t>(i)]),
                    0.0f, 1e-4f);
    fftwf_destroy_plan(fwd);
    fftwf_destroy_plan(bwd);
}

TEST(FftwShims, Rank0GuruPlanCopiesStrided)
{
    // The Listing-1 pattern: rank 0 + 2 loop dims = strided reshape.
    const int r = 3, c = 5;
    std::vector<cfloat> in(r * c), out(r * c);
    for (int i = 0; i < r * c; ++i)
        in[static_cast<std::size_t>(i)] = {static_cast<float>(i), 0.0f};
    fftwf_iodim hm[2] = {{r, c, 1}, {c, 1, r}};
    fftwf_plan p = fftwf_plan_guru_dft(
        0, nullptr, 2, hm, reinterpret_cast<fftwf_complex *>(in.data()),
        reinterpret_cast<fftwf_complex *>(out.data()), FFTW_FORWARD,
        FFTW_WISDOM_ONLY);
    fftwf_execute(p);
    fftwf_destroy_plan(p);
    for (int i = 0; i < r; ++i)
        for (int j = 0; j < c; ++j)
            EXPECT_EQ(out[static_cast<std::size_t>(j * r + i)],
                      in[static_cast<std::size_t>(i * c + j)]);
}

TEST(FftwShims, BatchedGuruPlan)
{
    const int n = 32, batch = 4;
    std::vector<cfloat> in(n * batch), out(n * batch);
    mealib::Rng rng(6);
    for (auto &v : in)
        v = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};
    fftwf_iodim dim{n, 1, 1};
    fftwf_iodim hm{batch, n, n};
    fftwf_plan p = fftwf_plan_guru_dft(
        1, &dim, 1, &hm, reinterpret_cast<fftwf_complex *>(in.data()),
        reinterpret_cast<fftwf_complex *>(out.data()), FFTW_FORWARD,
        FFTW_WISDOM_ONLY);
    fftwf_execute(p);
    fftwf_destroy_plan(p);

    // Each batch independently transformed: DC bin equals the sum.
    for (int b = 0; b < batch; ++b) {
        cfloat sum{};
        for (int i = 0; i < n; ++i)
            sum += in[static_cast<std::size_t>(b * n + i)];
        EXPECT_NEAR(std::abs(out[static_cast<std::size_t>(b * n)] - sum),
                    0.0f, 1e-4f);
    }
}

} // namespace
