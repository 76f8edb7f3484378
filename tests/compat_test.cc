// Tests for the MKL/CBLAS/FFTW-named compatibility shims — the exact
// entry points the paper's legacy applications call (Table 1, Listing 1).

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "dispatch/dispatcher.hh"
#include "minimkl/blas1.hh"
#include "minimkl/blas3.hh"
#include "minimkl/compat.hh"
#include "minimkl/fft.hh"
#include "minimkl/transpose.hh"

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

// The shims hand their CBLAS enums to the MiniMKL kernels by value. Over
// every argument combination the kernel accepts, cblas_cherk and
// cblas_ctrsm must produce the bytes of the kernel called with the
// same-named MiniMKL enums and count one dispatch under their kind. The
// operands are dense and padded, so a swapped layout, side, triangle,
// transposition or diagonal reads other elements and changes the bytes.

mealib::mkl::Order
kernelOrder(CBLAS_LAYOUT l)
{
    return l == CblasRowMajor ? mealib::mkl::Order::RowMajor
                              : mealib::mkl::Order::ColMajor;
}

mealib::mkl::Side
kernelSide(CBLAS_SIDE s)
{
    return s == CblasLeft ? mealib::mkl::Side::Left
                          : mealib::mkl::Side::Right;
}

mealib::mkl::Uplo
kernelUplo(CBLAS_UPLO u)
{
    return u == CblasUpper ? mealib::mkl::Uplo::Upper
                           : mealib::mkl::Uplo::Lower;
}

mealib::mkl::Transpose
kernelTrans(CBLAS_TRANSPOSE t)
{
    switch (t) {
      case CblasNoTrans:
        return mealib::mkl::Transpose::NoTrans;
      case CblasTrans:
        return mealib::mkl::Transpose::Trans;
      default:
        return mealib::mkl::Transpose::ConjTrans;
    }
}

mealib::mkl::Diag
kernelDiag(CBLAS_DIAG d)
{
    return d == CblasUnit ? mealib::mkl::Diag::Unit
                          : mealib::mkl::Diag::NonUnit;
}

std::vector<cfloat>
randomComplex(std::size_t n, std::uint64_t seed)
{
    mealib::Rng rng(seed);
    std::vector<cfloat> v(n);
    for (auto &x : v)
        x = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};
    return v;
}

class CherkShimCombos
    : public ::testing::TestWithParam<
          std::tuple<CBLAS_LAYOUT, CBLAS_UPLO, CBLAS_TRANSPOSE>>
{};

TEST_P(CherkShimCombos, MatchesKernelAndCountsHerk)
{
    const auto [layout, uplo, trans] = GetParam();
    // C is 4x4 in rows of 6; A is read as 4x3 or 3x4 out of a dense 4x4
    // in rows of 5.
    const int n = 4, k = 3, lda = 5, ldc = 6;
    const std::vector<cfloat> a = randomComplex(4 * lda, 21);
    std::vector<cfloat> c = randomComplex(n * ldc, 22);
    std::vector<cfloat> want = c;
    mealib::mkl::cherk(kernelOrder(layout), kernelUplo(uplo),
                       kernelTrans(trans), n, k, 0.75f, a.data(), lda, 0.5f,
                       want.data(), ldc);
    EXPECT_EQ(callsDuring(OpKind::Herk, [&] {
                  cblas_cherk(layout, uplo, trans, n, k, 0.75f, a.data(),
                              lda, 0.5f, c.data(), ldc);
              }),
              1u);
    EXPECT_TRUE(sameBytes(c, want));
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, CherkShimCombos,
    ::testing::Combine(::testing::Values(CblasRowMajor, CblasColMajor),
                       ::testing::Values(CblasUpper, CblasLower),
                       ::testing::Values(CblasNoTrans, CblasConjTrans)));

class CtrsmShimCombos
    : public ::testing::TestWithParam<
          std::tuple<CBLAS_SIDE, CBLAS_UPLO, CBLAS_TRANSPOSE, CBLAS_DIAG>>
{};

TEST_P(CtrsmShimCombos, MatchesKernelAndCountsTrsm)
{
    const auto [side, uplo, trans, diag] = GetParam();
    // B is 5x4 in rows of 7; A is the leading 5x5 (left) or 4x4 (right)
    // block of a dense, diagonally dominant 5x5 in rows of 6.
    const int m = 5, n = 4, lda = 6, ldb = 7;
    std::vector<cfloat> a = randomComplex(5 * lda, 11);
    for (int i = 0; i < 5; ++i)
        a[static_cast<std::size_t>(i * lda + i)] += cfloat{4.0f, 1.0f};
    std::vector<cfloat> b = randomComplex(m * ldb, 12);
    std::vector<cfloat> want = b;
    const cfloat alpha{1.5f, -0.5f};
    mealib::mkl::ctrsm(mealib::mkl::Order::RowMajor, kernelSide(side),
                       kernelUplo(uplo), kernelTrans(trans),
                       kernelDiag(diag), m, n, alpha, a.data(), lda,
                       want.data(), ldb);
    EXPECT_EQ(callsDuring(OpKind::Trsm, [&] {
                  cblas_ctrsm(CblasRowMajor, side, uplo, trans, diag, m, n,
                              &alpha, a.data(), lda, b.data(), ldb);
              }),
              1u);
    EXPECT_TRUE(sameBytes(b, want));
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, CtrsmShimCombos,
    ::testing::Combine(::testing::Values(CblasLeft, CblasRight),
                       ::testing::Values(CblasUpper, CblasLower),
                       ::testing::Values(CblasNoTrans, CblasTrans,
                                         CblasConjTrans),
                       ::testing::Values(CblasNonUnit, CblasUnit)));

// Each shim below must produce the bytes of the mkl:: kernel it wraps
// (non-unit strides where the API has them) and count one dispatch under
// its kind.

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

TEST(MklShims, ScsrgemvTransposeMatchesExplicitTranspose)
{
    // A non-symmetric 50 x 50 matrix in classic 1-based CSR, one to
    // three nonzeros per row: the transposed walk must equal a dense
    // oracle's A^T x and count one Spmv dispatch.
    const int rows = 50;
    mealib::Rng rng(3);
    std::vector<int> ia{1}, ja;
    std::vector<float> vals;
    for (int r = 0; r < rows; ++r) {
        const std::set<int> cols{r, (3 * r + 1) % rows, (7 * r + 4) % rows};
        for (int c : cols) {
            ja.push_back(c + 1);
            vals.push_back(rng.uniform(-1.0f, 1.0f));
        }
        ia.push_back(static_cast<int>(ja.size()) + 1);
    }
    std::vector<float> x(rows);
    for (auto &v : x)
        v = rng.uniform(-1.0f, 1.0f);

    std::vector<float> ref(rows, 0.0f);
    for (int r = 0; r < rows; ++r)
        for (int k = ia[static_cast<std::size_t>(r)] - 1;
             k < ia[static_cast<std::size_t>(r) + 1] - 1; ++k)
            ref[static_cast<std::size_t>(ja[static_cast<std::size_t>(k)] -
                                         1)] +=
                vals[static_cast<std::size_t>(k)] *
                x[static_cast<std::size_t>(r)];

    std::vector<float> y(rows, 0.0f);
    int m = rows;
    EXPECT_EQ(callsDuring(OpKind::Spmv, [&] {
                  mkl_scsrgemv("T", &m, vals.data(), ia.data(), ja.data(),
                               x.data(), y.data());
              }),
              1u);
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_NEAR(y[i], ref[i], 1e-5f) << "column " << i;
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

TEST(MklShims, ComatcopyMatchesKernelAndCountsTranspose)
{
    // A 3x5 complex matrix in rows of 7, written into rows of 6 (above
    // the 5 or 3 columns each result needs), with a complex alpha.
    std::vector<cfloat> a(3 * 7);
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = {0.5f * static_cast<float>(i % 7) - 1.5f,
                0.25f * static_cast<float>(i % 5) + 0.125f};
    const cfloat alpha{0.5f, -1.5f};
    const std::pair<char, mealib::mkl::Transpose> modes[] = {
        {'N', mealib::mkl::Transpose::NoTrans},
        {'T', mealib::mkl::Transpose::Trans},
        {'C', mealib::mkl::Transpose::ConjTrans}};
    for (const auto &[trans, kernelTrans] : modes) {
        std::vector<cfloat> b = ramp<cfloat>(5 * 6, -0.25f);
        std::vector<cfloat> want = b;
        mealib::mkl::comatcopy(mealib::mkl::Order::RowMajor, kernelTrans,
                               3, 5, alpha, a.data(), 7, want.data(), 6);
        const mealib::dispatch::OpStats before =
            Dispatcher::global().snapshot().of(OpKind::Transpose);
        mkl_comatcopy('R', trans, 3, 5, {alpha.real(), alpha.imag()},
                      reinterpret_cast<const MKL_Complex8 *>(a.data()), 7,
                      reinterpret_cast<MKL_Complex8 *>(b.data()), 6);
        const mealib::dispatch::OpStats after =
            Dispatcher::global().snapshot().of(OpKind::Transpose);
        EXPECT_EQ(after.calls - before.calls, 1u) << trans;
        EXPECT_EQ(after.fallbacks - before.fallbacks, 0u) << trans;
        EXPECT_TRUE(sameBytes(b, want)) << trans;
    }
    EXPECT_THROW(mkl_comatcopy('R', 'R', 3, 5, {1.0f, 0.0f},
                               reinterpret_cast<const MKL_Complex8 *>(
                                   a.data()),
                               7, nullptr, 6),
                 mealib::FatalError);
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

TEST(FftwShims, BatchedGuruPlanMatchesKernelPlanAndCountsFft)
{
    // STAP's doppler transform (Listing 1): rank 1 {n, 1, 1} over howmany
    // {rows, n, n}. The shim must produce the bytes of the batched kernel
    // plan it stands for and dispatch once, at execute.
    const int n = 16, rows = 12;
    std::vector<cfloat> in(static_cast<std::size_t>(n * rows));
    mealib::Rng rng(8);
    for (auto &v : in)
        v = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};
    std::vector<cfloat> want(in.size()), out(in.size());
    mealib::mkl::FftPlan::dft1dBatched(n, rows, n,
                                       mealib::mkl::FftDirection::Forward)
        .execute(in.data(), want.data());

    const fftwf_iodim dft{n, 1, 1};
    const fftwf_iodim hm{rows, n, n};
    EXPECT_EQ(callsDuring(OpKind::Fft, [&] {
                  fftwf_plan p = fftwf_plan_guru_dft(
                      1, &dft, 1, &hm,
                      reinterpret_cast<fftwf_complex *>(in.data()),
                      reinterpret_cast<fftwf_complex *>(out.data()),
                      FFTW_FORWARD, FFTW_ESTIMATE);
                  fftwf_execute(p);
                  fftwf_destroy_plan(p);
              }),
              1u);
    EXPECT_TRUE(sameBytes(out, want));
}

} // namespace
