// Tests for Level-3 BLAS: gemm vs oracle, cherk vs gemm, trsm vs
// multiply-back, across layouts and parameter combinations.

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "minimkl/blas3.hh"

namespace mealib::mkl {
namespace {

std::vector<float>
randomVec(std::int64_t n, Rng &rng)
{
    std::vector<float> v(static_cast<std::size_t>(n));
    for (auto &x : v)
        x = rng.uniform(-1.0f, 1.0f);
    return v;
}

std::vector<cfloat>
randomCVec(std::int64_t n, Rng &rng)
{
    std::vector<cfloat> v(static_cast<std::size_t>(n));
    for (auto &x : v)
        x = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};
    return v;
}

/** Unblocked row-major oracle for C := alpha*op(A)*op(B) + beta*C. */
template <typename T>
void
gemmOracle(Transpose ta, Transpose tb, std::int64_t m, std::int64_t n,
           std::int64_t k, T alpha, const std::vector<T> &a,
           std::int64_t lda, const std::vector<T> &b, std::int64_t ldb,
           T beta, std::vector<T> &c, std::int64_t ldc)
{
    auto conj_of = [](T v) {
        if constexpr (std::is_same_v<T, cfloat>)
            return std::conj(v);
        else
            return v;
    };
    auto elem = [&](const std::vector<T> &mat, std::int64_t ld,
                    Transpose t, std::int64_t i, std::int64_t j) {
        T v = t == Transpose::NoTrans
                  ? mat[static_cast<std::size_t>(i * ld + j)]
                  : mat[static_cast<std::size_t>(j * ld + i)];
        return t == Transpose::ConjTrans ? conj_of(v) : v;
    };
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            T acc{};
            for (std::int64_t p = 0; p < k; ++p)
                acc += elem(a, lda, ta, i, p) * elem(b, ldb, tb, p, j);
            auto idx = static_cast<std::size_t>(i * ldc + j);
            c[idx] = alpha * acc + beta * c[idx];
        }
    }
}

class GemmCombos
    : public ::testing::TestWithParam<std::tuple<Transpose, Transpose>>
{};

TEST_P(GemmCombos, RowMajorMatchesOracle)
{
    auto [ta, tb] = GetParam();
    const std::int64_t m = 9, n = 14, k = 11;
    Rng rng(21);
    std::int64_t lda = ta == Transpose::NoTrans ? k : m;
    std::int64_t ldb = tb == Transpose::NoTrans ? n : k;
    auto a = randomVec(m * k, rng);
    auto b = randomVec(k * n, rng);
    auto c = randomVec(m * n, rng);
    auto c_ref = c;

    sgemm(Order::RowMajor, ta, tb, m, n, k, 1.3f, a.data(), lda, b.data(),
          ldb, 0.4f, c.data(), n);
    gemmOracle(ta, tb, m, n, k, 1.3f, a, lda, b, ldb, 0.4f, c_ref, n);
    for (std::size_t i = 0; i < c.size(); ++i)
        EXPECT_NEAR(c[i], c_ref[i], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    TransCombos, GemmCombos,
    ::testing::Combine(::testing::Values(Transpose::NoTrans,
                                         Transpose::Trans),
                       ::testing::Values(Transpose::NoTrans,
                                         Transpose::Trans)));

TEST(Sgemm, ColMajorAgreesWithRowMajor)
{
    const std::int64_t m = 6, n = 5, k = 4;
    Rng rng(31);
    auto a = randomVec(m * k, rng); // row-major m x k
    auto b = randomVec(k * n, rng);
    std::vector<float> c_rm(m * n, 0.0f);
    sgemm(Order::RowMajor, Transpose::NoTrans, Transpose::NoTrans, m, n,
          k, 1.0f, a.data(), k, b.data(), n, 0.0f, c_rm.data(), n);

    // Build column-major copies of the same logical matrices.
    std::vector<float> a_cm(m * k), b_cm(k * n), c_cm(m * n, 0.0f);
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t p = 0; p < k; ++p)
            a_cm[static_cast<std::size_t>(p * m + i)] =
                a[static_cast<std::size_t>(i * k + p)];
    for (std::int64_t p = 0; p < k; ++p)
        for (std::int64_t j = 0; j < n; ++j)
            b_cm[static_cast<std::size_t>(j * k + p)] =
                b[static_cast<std::size_t>(p * n + j)];
    sgemm(Order::ColMajor, Transpose::NoTrans, Transpose::NoTrans, m, n,
          k, 1.0f, a_cm.data(), m, b_cm.data(), k, 0.0f, c_cm.data(), m);

    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j)
            EXPECT_NEAR(c_rm[static_cast<std::size_t>(i * n + j)],
                        c_cm[static_cast<std::size_t>(j * m + i)], 1e-4f);
}

TEST(Sgemm, ConjTransActsAsTransForReal)
{
    // Conjugation is the identity on reals: ConjTrans on either operand
    // must produce the bytes Trans does.
    const std::int64_t m = 9, n = 14, k = 11;
    Rng rng(23);
    const auto a = randomVec(m * k, rng); // k x m for op(A) = A^T
    const auto b = randomVec(k * n, rng); // n x k for op(B) = B^T
    const auto c0 = randomVec(m * n, rng);
    using Ops = std::tuple<Transpose, Transpose>;
    const std::tuple<Ops, Ops> cases[] = {
        {{Transpose::ConjTrans, Transpose::NoTrans},
         {Transpose::Trans, Transpose::NoTrans}},
        {{Transpose::NoTrans, Transpose::ConjTrans},
         {Transpose::NoTrans, Transpose::Trans}},
        {{Transpose::ConjTrans, Transpose::ConjTrans},
         {Transpose::Trans, Transpose::Trans}},
    };
    for (const auto &[conj, plain] : cases) {
        auto run = [&](const Ops &ops) {
            const auto [ta, tb] = ops;
            const std::int64_t lda = ta == Transpose::NoTrans ? k : m;
            const std::int64_t ldb = tb == Transpose::NoTrans ? n : k;
            std::vector<float> c = c0;
            sgemm(Order::RowMajor, ta, tb, m, n, k, 1.3f, a.data(), lda,
                  b.data(), ldb, 0.4f, c.data(), n);
            return c;
        };
        const std::vector<float> got = run(conj);
        const std::vector<float> want = run(plain);
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(float)),
                  0)
            << "transa " << static_cast<int>(std::get<0>(conj))
            << " transb " << static_cast<int>(std::get<1>(conj));
    }
}

TEST(Sgemm, BlockingIsTransparentAcrossSizes)
{
    // Sizes straddling the 64-wide block boundary must agree with the
    // oracle (catches blocked-loop edge bugs).
    for (std::int64_t sz : {63, 64, 65, 130}) {
        Rng rng(static_cast<std::uint64_t>(sz));
        auto a = randomVec(sz * sz, rng);
        auto b = randomVec(sz * sz, rng);
        std::vector<float> c(static_cast<std::size_t>(sz * sz), 0.0f);
        auto c_ref = c;
        sgemm(Order::RowMajor, Transpose::NoTrans, Transpose::NoTrans, sz,
              sz, sz, 1.0f, a.data(), sz, b.data(), sz, 0.0f, c.data(),
              sz);
        gemmOracle(Transpose::NoTrans, Transpose::NoTrans, sz, sz, sz,
                   1.0f, a, sz, b, sz, 0.0f, c_ref, sz);
        float max_err = 0.0f;
        for (std::size_t i = 0; i < c.size(); ++i)
            max_err = std::max(max_err, std::fabs(c[i] - c_ref[i]));
        EXPECT_LT(max_err, 1e-3f) << "size " << sz;
    }
}

/** Oracle CHERK via explicit A*A^H computation on the full matrix. */
void
cherkOracle(Uplo uplo, Transpose trans, std::int64_t n, std::int64_t k,
            float alpha, const std::vector<cfloat> &a, std::int64_t lda,
            float beta, std::vector<cfloat> &c, std::int64_t ldc)
{
    for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            bool in_tri = uplo == Uplo::Upper ? j >= i : j <= i;
            if (!in_tri)
                continue;
            cfloat acc{};
            for (std::int64_t p = 0; p < k; ++p) {
                cfloat x = trans == Transpose::NoTrans
                               ? a[static_cast<std::size_t>(i * lda + p)]
                               : std::conj(a[static_cast<std::size_t>(
                                     p * lda + i)]);
                cfloat y = trans == Transpose::NoTrans
                               ? std::conj(a[static_cast<std::size_t>(
                                     j * lda + p)])
                               : a[static_cast<std::size_t>(p * lda + j)];
                acc += x * y;
            }
            auto idx = static_cast<std::size_t>(i * ldc + j);
            cfloat v = alpha * acc + beta * c[idx];
            if (i == j)
                v = {v.real(), 0.0f};
            c[idx] = v;
        }
    }
}

class CherkCombos
    : public ::testing::TestWithParam<std::tuple<Uplo, Transpose>>
{};

TEST_P(CherkCombos, MatchesOracle)
{
    auto [uplo, trans] = GetParam();
    const std::int64_t n = 10, k = 7;
    Rng rng(51);
    std::int64_t lda = trans == Transpose::NoTrans ? k : n;
    auto a = randomCVec(n * k, rng);
    auto c = randomCVec(n * n, rng);
    // Make C Hermitian-ish on the diagonal as BLAS expects.
    for (std::int64_t i = 0; i < n; ++i)
        c[static_cast<std::size_t>(i * n + i)] = {
            c[static_cast<std::size_t>(i * n + i)].real(), 0.0f};
    auto c_ref = c;

    cherk(Order::RowMajor, uplo, trans, n, k, 0.8f, a.data(), lda, 0.5f,
          c.data(), n);
    cherkOracle(uplo, trans, n, k, 0.8f, a, lda, 0.5f, c_ref, n);
    for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            auto idx = static_cast<std::size_t>(i * n + j);
            EXPECT_NEAR(std::abs(c[idx] - c_ref[idx]), 0.0f, 1e-4f)
                << i << "," << j;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    UploTrans, CherkCombos,
    ::testing::Combine(::testing::Values(Uplo::Upper, Uplo::Lower),
                       ::testing::Values(Transpose::NoTrans,
                                         Transpose::ConjTrans)));

TEST(Cherk, DiagonalStaysReal)
{
    const std::int64_t n = 8, k = 5;
    Rng rng(61);
    auto a = randomCVec(n * k, rng);
    std::vector<cfloat> c(static_cast<std::size_t>(n * n), cfloat{});
    cherk(Order::RowMajor, Uplo::Lower, Transpose::NoTrans, n, k, 1.0f,
          a.data(), k, 0.0f, c.data(), n);
    for (std::int64_t i = 0; i < n; ++i) {
        auto d = c[static_cast<std::size_t>(i * n + i)];
        EXPECT_FLOAT_EQ(d.imag(), 0.0f);
        EXPECT_GE(d.real(), 0.0f); // A*A^H is positive semidefinite
    }
}

TEST(Cherk, RejectsPlainTrans)
{
    std::vector<cfloat> a(4), c(4);
    EXPECT_THROW(cherk(Order::RowMajor, Uplo::Lower, Transpose::Trans, 2,
                       2, 1.0f, a.data(), 2, 0.0f, c.data(), 2),
                 mealib::FatalError);
}

TEST(Cherk, RankOneUpdateMatchesOuterProduct)
{
    // k = 1: C += a * a^H (NoTrans, a is n x 1) or a^H * a (ConjTrans, a
    // is 1 x n) on the named triangle only. Small integer parts keep
    // every product exact.
    const std::vector<cfloat> a{{1, 0}, {0, 1}, {2, -1}};
    const std::int64_t n = 3;
    const cfloat untouched{9, 9};
    for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
        for (Transpose trans : {Transpose::NoTrans, Transpose::ConjTrans}) {
            std::vector<cfloat> c(static_cast<std::size_t>(n * n));
            for (std::int64_t i = 0; i < n; ++i)
                for (std::int64_t j = 0; j < n; ++j) {
                    const bool inTri = uplo == Uplo::Upper ? j >= i : j <= i;
                    c[static_cast<std::size_t>(i * n + j)] =
                        inTri ? cfloat{} : untouched;
                }
            const std::int64_t lda = trans == Transpose::NoTrans ? 1 : n;
            cherk(Order::RowMajor, uplo, trans, n, 1, 1.0f, a.data(), lda,
                  1.0f, c.data(), n);
            for (std::int64_t i = 0; i < n; ++i) {
                for (std::int64_t j = 0; j < n; ++j) {
                    const bool inTri = uplo == Uplo::Upper ? j >= i : j <= i;
                    const auto ui = static_cast<std::size_t>(i);
                    const auto uj = static_cast<std::size_t>(j);
                    const cfloat want =
                        !inTri ? untouched
                        : trans == Transpose::NoTrans
                            ? a[ui] * std::conj(a[uj])
                            : std::conj(a[ui]) * a[uj];
                    EXPECT_EQ(c[static_cast<std::size_t>(i * n + j)], want)
                        << "uplo " << static_cast<int>(uplo) << " trans "
                        << static_cast<int>(trans) << " at " << i << ","
                        << j;
                }
            }
        }
    }
}

/** Build a well-conditioned triangular matrix. */
std::vector<cfloat>
triangular(std::int64_t n, Uplo uplo, Rng &rng)
{
    std::vector<cfloat> a(static_cast<std::size_t>(n * n), cfloat{});
    for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            bool in_tri = uplo == Uplo::Upper ? j >= i : j <= i;
            if (!in_tri)
                continue;
            auto idx = static_cast<std::size_t>(i * n + j);
            if (i == j)
                a[idx] = {rng.uniform(1.0f, 2.0f), 0.0f}; // dominant diag
            else
                a[idx] = {rng.uniform(-0.3f, 0.3f),
                          rng.uniform(-0.3f, 0.3f)};
        }
    }
    return a;
}

class TrsmCombos
    : public ::testing::TestWithParam<
          std::tuple<Side, Uplo, Transpose, Diag>>
{};

TEST_P(TrsmCombos, SolveThenMultiplyRoundTrips)
{
    auto [side, uplo, trans, diag] = GetParam();
    const std::int64_t m = 9, n = 6;
    Rng rng(71);
    std::int64_t adim = side == Side::Left ? m : n;
    auto a = triangular(adim, uplo, rng);
    if (diag == Diag::Unit) {
        // Unit diagonal: stored diagonal is ignored; poison it.
        for (std::int64_t i = 0; i < adim; ++i)
            a[static_cast<std::size_t>(i * adim + i)] = {77.0f, 77.0f};
    }
    auto b = randomCVec(m * n, rng);
    auto b0 = b;
    cfloat alpha{1.5f, -0.5f};

    ctrsm(Order::RowMajor, side, uplo, trans, diag, m, n, alpha, a.data(),
          adim, b.data(), n);

    // Multiply back: op(A)*X (Left) or X*op(A) (Right), with the unit
    // diagonal imposed when requested.
    auto a_eff = a;
    if (diag == Diag::Unit)
        for (std::int64_t i = 0; i < adim; ++i)
            a_eff[static_cast<std::size_t>(i * adim + i)] = {1.0f, 0.0f};
    std::vector<cfloat> back(static_cast<std::size_t>(m * n), cfloat{});
    if (side == Side::Left) {
        gemmOracle(trans, Transpose::NoTrans, m, n, m, cfloat{1, 0},
                   a_eff, adim, b, n, cfloat{0, 0}, back, n);
    } else {
        gemmOracle(Transpose::NoTrans, trans, m, n, n, cfloat{1, 0}, b, n,
                   a_eff, adim, cfloat{0, 0}, back, n);
    }
    for (std::size_t i = 0; i < back.size(); ++i)
        EXPECT_NEAR(std::abs(back[i] - alpha * b0[i]), 0.0f, 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, TrsmCombos,
    ::testing::Combine(
        ::testing::Values(Side::Left, Side::Right),
        ::testing::Values(Uplo::Upper, Uplo::Lower),
        ::testing::Values(Transpose::NoTrans, Transpose::Trans,
                          Transpose::ConjTrans),
        ::testing::Values(Diag::NonUnit, Diag::Unit)));

TEST(Ctrsm, ColMajorAgreesWithRowMajor)
{
    const std::int64_t m = 6, n = 4;
    Rng rng(91);
    auto a = triangular(m, Uplo::Lower, rng);
    auto b = randomCVec(m * n, rng);

    // Row-major solve.
    auto b_rm = b;
    ctrsm(Order::RowMajor, Side::Left, Uplo::Lower, Transpose::NoTrans,
          Diag::NonUnit, m, n, {1, 0}, a.data(), m, b_rm.data(), n);

    // Column-major copies of the same logical A (lower) and B.
    std::vector<cfloat> a_cm(a.size()), b_cm(b.size());
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < m; ++j)
            a_cm[static_cast<std::size_t>(j * m + i)] =
                a[static_cast<std::size_t>(i * m + j)];
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j)
            b_cm[static_cast<std::size_t>(j * m + i)] =
                b[static_cast<std::size_t>(i * n + j)];
    ctrsm(Order::ColMajor, Side::Left, Uplo::Lower, Transpose::NoTrans,
          Diag::NonUnit, m, n, {1, 0}, a_cm.data(), m, b_cm.data(), m);

    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j)
            EXPECT_NEAR(
                std::abs(b_rm[static_cast<std::size_t>(i * n + j)] -
                         b_cm[static_cast<std::size_t>(j * m + i)]),
                0.0f, 1e-4f);
}

} // namespace
} // namespace mealib::mkl
