// Tests for Level-2 BLAS against naive oracles across layout/trans
// combinations.

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "minimkl/blas2.hh"
#include "minimkl/naive.hh"

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

/** Dense oracle: y := alpha*op(A)*x + beta*y with explicit indexing. */
void
gemvOracle(Order order, Transpose trans, std::int64_t m, std::int64_t n,
           float alpha, const std::vector<float> &a, std::int64_t lda,
           const std::vector<float> &x, float beta, std::vector<float> &y)
{
    auto elem = [&](std::int64_t i, std::int64_t j) {
        return order == Order::RowMajor ? a[static_cast<std::size_t>(
                                              i * lda + j)]
                                        : a[static_cast<std::size_t>(
                                              j * lda + i)];
    };
    bool t = trans != Transpose::NoTrans;
    std::int64_t ylen = t ? n : m;
    std::int64_t xlen = t ? m : n;
    for (std::int64_t i = 0; i < ylen; ++i) {
        double acc = 0.0;
        for (std::int64_t j = 0; j < xlen; ++j) {
            float v = t ? elem(j, i) : elem(i, j);
            acc += static_cast<double>(v) *
                   static_cast<double>(x[static_cast<std::size_t>(j)]);
        }
        y[static_cast<std::size_t>(i)] =
            alpha * static_cast<float>(acc) +
            beta * y[static_cast<std::size_t>(i)];
    }
}

class GemvCombos
    : public ::testing::TestWithParam<std::tuple<Order, Transpose>>
{};

TEST_P(GemvCombos, MatchesOracle)
{
    auto [order, trans] = GetParam();
    const std::int64_t m = 13, n = 29;
    Rng rng(42);
    std::int64_t lda = order == Order::RowMajor ? n : m;
    auto a = randomVec(m * n, rng);
    bool t = trans != Transpose::NoTrans;
    auto x = randomVec(t ? m : n, rng);
    auto y = randomVec(t ? n : m, rng);
    auto y_ref = y;

    sgemv(order, trans, m, n, 0.7f, a.data(), lda, x.data(), 1, 0.3f,
          y.data(), 1);
    gemvOracle(order, trans, m, n, 0.7f, a, lda, x, 0.3f, y_ref);
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y[i], y_ref[i], 1e-4f) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, GemvCombos,
    ::testing::Combine(::testing::Values(Order::RowMajor,
                                         Order::ColMajor),
                       ::testing::Values(Transpose::NoTrans,
                                         Transpose::Trans)));

TEST(Sgemv, MatchesNaiveRowMajor)
{
    Rng rng(7);
    const std::int64_t m = 50, n = 40;
    auto a = randomVec(m * n, rng);
    auto x = randomVec(n, rng);
    std::vector<float> y(m, 0.0f), y_ref(m, 0.0f);
    sgemv(Order::RowMajor, Transpose::NoTrans, m, n, 1.0f, a.data(), n,
          x.data(), 1, 0.0f, y.data(), 1);
    naive::sgemv(m, n, a.data(), n, x.data(), y_ref.data());
    for (std::int64_t i = 0; i < m; ++i)
        EXPECT_NEAR(y[static_cast<std::size_t>(i)],
                    y_ref[static_cast<std::size_t>(i)], 1e-4f);
}

TEST(Sgemv, BetaZeroOverwritesNaNs)
{
    // beta == 0 must not propagate garbage from y (BLAS requirement).
    std::vector<float> a{1, 0, 0, 1};
    std::vector<float> x{2, 3};
    std::vector<float> y{std::nanf(""), std::nanf("")};
    sgemv(Order::RowMajor, Transpose::NoTrans, 2, 2, 1.0f, a.data(), 2,
          x.data(), 1, 0.0f, y.data(), 1);
    EXPECT_FLOAT_EQ(y[0], 2.0f);
    EXPECT_FLOAT_EQ(y[1], 3.0f);
}

TEST(Sgemv, BetaZeroOverwritesNaNsTransposed)
{
    // The column-wise walk must not read y under beta == 0 either.
    std::vector<float> a{1, 2, 3, 4}; // [[1,2],[3,4]]
    std::vector<float> x{1, 1};
    std::vector<float> y{std::nanf(""), std::nanf("")};
    sgemv(Order::RowMajor, Transpose::Trans, 2, 2, 1.0f, a.data(), 2,
          x.data(), 1, 0.0f, y.data(), 1);
    EXPECT_FLOAT_EQ(y[0], 4.0f);
    EXPECT_FLOAT_EQ(y[1], 6.0f);
}

TEST(Sgemv, AlphaZeroToleratesNullMatrixAndX)
{
    // alpha == 0 never touches A or x: null pointers, zero incx and a
    // bogus lda must all be accepted (mirrors the saxpby leniency).
    std::vector<float> y{2.0f, 4.0f};
    sgemv(Order::RowMajor, Transpose::NoTrans, 2, 2, 0.0f, nullptr, 0,
          nullptr, 0, 0.5f, y.data(), 1);
    EXPECT_FLOAT_EQ(y[0], 1.0f);
    EXPECT_FLOAT_EQ(y[1], 2.0f);
}

TEST(Sgemv, AlphaZeroBetaZeroWritesZeros)
{
    std::vector<float> y{std::nanf(""), std::nanf("")};
    sgemv(Order::RowMajor, Transpose::NoTrans, 2, 2, 0.0f, nullptr, 0,
          nullptr, 0, 0.0f, y.data(), 1);
    EXPECT_FLOAT_EQ(y[0], 0.0f);
    EXPECT_FLOAT_EQ(y[1], 0.0f);
}

TEST(Sgemv, StridedVectors)
{
    std::vector<float> a{1, 2, 3, 4}; // [[1,2],[3,4]]
    std::vector<float> x{1, 99, 1};   // stride 2 -> [1, 1]
    std::vector<float> y{0, 99, 0};
    sgemv(Order::RowMajor, Transpose::NoTrans, 2, 2, 1.0f, a.data(), 2,
          x.data(), 2, 0.0f, y.data(), 2);
    EXPECT_FLOAT_EQ(y[0], 3.0f);
    EXPECT_FLOAT_EQ(y[2], 7.0f);
    EXPECT_FLOAT_EQ(y[1], 99.0f); // untouched gap
}

TEST(Sgemv, LdaLargerThanCols)
{
    // 2x2 logical matrix embedded in lda=4 storage.
    std::vector<float> a{1, 2, -1, -1, 3, 4, -1, -1};
    std::vector<float> x{1, 1};
    std::vector<float> y(2, 0.0f);
    sgemv(Order::RowMajor, Transpose::NoTrans, 2, 2, 1.0f, a.data(), 4,
          x.data(), 1, 0.0f, y.data(), 1);
    EXPECT_FLOAT_EQ(y[0], 3.0f);
    EXPECT_FLOAT_EQ(y[1], 7.0f);
}

TEST(Sgemv, ConjTransActsAsTransForReal)
{
    // Conjugation is the identity on reals: ConjTrans must walk A
    // exactly as Trans does, in either storage order.
    const std::int64_t m = 13, n = 29;
    Rng rng(17);
    const auto a = randomVec(m * n, rng);
    const auto x = randomVec(m, rng);
    for (Order order : {Order::RowMajor, Order::ColMajor}) {
        const std::int64_t lda = order == Order::RowMajor ? n : m;
        auto yTrans = randomVec(n, rng);
        auto yConj = yTrans;
        sgemv(order, Transpose::Trans, m, n, 0.7f, a.data(), lda,
              x.data(), 1, 0.3f, yTrans.data(), 1);
        sgemv(order, Transpose::ConjTrans, m, n, 0.7f, a.data(), lda,
              x.data(), 1, 0.3f, yConj.data(), 1);
        EXPECT_EQ(std::memcmp(yTrans.data(), yConj.data(),
                              yTrans.size() * sizeof(float)),
                  0)
            << (order == Order::RowMajor ? "row-major" : "col-major");
    }
}

} // namespace
} // namespace mealib::mkl
