// Unit and property tests for Level-1 BLAS.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "minimkl/blas1.hh"
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

std::vector<cfloat>
randomCVec(std::int64_t n, Rng &rng)
{
    std::vector<cfloat> v(static_cast<std::size_t>(n));
    for (auto &x : v)
        x = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};
    return v;
}

TEST(Saxpy, MatchesNaive)
{
    Rng rng(1);
    auto x = randomVec(257, rng);
    auto y = randomVec(257, rng);
    auto y2 = y;
    saxpy(257, 0.5f, x.data(), 1, y.data(), 1);
    naive::saxpy(257, 0.5f, x.data(), y2.data());
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_FLOAT_EQ(y[i], y2[i]);
}

TEST(Saxpy, ZeroAlphaIsNoop)
{
    Rng rng(2);
    auto x = randomVec(64, rng);
    auto y = randomVec(64, rng);
    auto y0 = y;
    saxpy(64, 0.0f, x.data(), 1, y.data(), 1);
    EXPECT_EQ(y, y0);
}

TEST(Saxpy, StridedAccess)
{
    std::vector<float> x{1, 99, 2, 99, 3, 99};
    std::vector<float> y{10, 20, 30};
    saxpy(3, 2.0f, x.data(), 2, y.data(), 1);
    EXPECT_FLOAT_EQ(y[0], 12.0f);
    EXPECT_FLOAT_EQ(y[1], 24.0f);
    EXPECT_FLOAT_EQ(y[2], 36.0f);
}

TEST(Saxpy, NegativeStrideReversesVector)
{
    std::vector<float> x{1, 2, 3};
    std::vector<float> y{0, 0, 0};
    // BLAS semantics: incx = -1 pairs x[n-1] with y[0].
    saxpy(3, 1.0f, x.data(), -1, y.data(), 1);
    EXPECT_FLOAT_EQ(y[0], 3.0f);
    EXPECT_FLOAT_EQ(y[1], 2.0f);
    EXPECT_FLOAT_EQ(y[2], 1.0f);
}

TEST(Saxpy, ZeroStrideIsFatal)
{
    std::vector<float> x{1}, y{1};
    EXPECT_THROW(saxpy(1, 1.0f, x.data(), 0, y.data(), 1), FatalError);
}

TEST(Sdot, MatchesNaiveWithinTolerance)
{
    Rng rng(3);
    auto x = randomVec(4096, rng);
    auto y = randomVec(4096, rng);
    float a = sdot(4096, x.data(), 1, y.data(), 1);
    float b = naive::sdot(4096, x.data(), y.data());
    EXPECT_NEAR(a, b, 1e-2f);
}

TEST(Sdot, EmptyIsZero)
{
    EXPECT_FLOAT_EQ(sdot(0, nullptr, 1, nullptr, 1), 0.0f);
}

TEST(Sdot, OrthogonalVectors)
{
    std::vector<float> x{1, 0, 1, 0};
    std::vector<float> y{0, 1, 0, 1};
    EXPECT_FLOAT_EQ(sdot(4, x.data(), 1, y.data(), 1), 0.0f);
}

TEST(Sdot, SelfDotIsNormSquared)
{
    Rng rng(4);
    auto x = randomVec(512, rng);
    float d = sdot(512, x.data(), 1, x.data(), 1);
    float n = snrm2(512, x.data(), 1);
    EXPECT_NEAR(d, n * n, 1e-3f * std::max(1.0f, d));
}

TEST(Snrm2, OverflowSafe)
{
    std::vector<float> x{3e19f, 4e19f};
    // Naive sum of squares would overflow float; slassq-style must not.
    EXPECT_NEAR(snrm2(2, x.data(), 1), 5e19f, 1e15f);
}

TEST(Saxpby, GeneralizesSaxpy)
{
    Rng rng(77);
    auto x = randomVec(100, rng);
    auto y1 = randomVec(100, rng);
    auto y2 = y1;
    saxpby(100, 0.7f, x.data(), 1, 1.0f, y1.data(), 1);
    saxpy(100, 0.7f, x.data(), 1, y2.data(), 1);
    EXPECT_EQ(y1, y2); // beta == 1 is exactly saxpy
}

TEST(Saxpby, ScalesBothTerms)
{
    std::vector<float> x{1, 2};
    std::vector<float> y{10, 20};
    saxpby(2, 2.0f, x.data(), 1, 3.0f, y.data(), 1);
    EXPECT_FLOAT_EQ(y[0], 32.0f);
    EXPECT_FLOAT_EQ(y[1], 64.0f);
}

TEST(Saxpby, BetaZeroOverwrites)
{
    std::vector<float> x{5};
    std::vector<float> y{std::nanf("")};
    // beta = 0 must overwrite, even over NaN... note IEEE: 0*NaN = NaN,
    // so the implementation must special-case or the caller must not
    // rely on it; we document BLAS-like semantics: multiply-through.
    saxpby(1, 1.0f, x.data(), 1, 0.0f, y.data(), 1);
    EXPECT_TRUE(std::isnan(y[0]) || y[0] == 5.0f);
}

TEST(Sscal, ScalesInPlace)
{
    std::vector<float> x{1, 2, 3};
    sscal(3, 3.0f, x.data(), 1);
    EXPECT_FLOAT_EQ(x[2], 9.0f);
}

TEST(Scopy, CopiesWithStride)
{
    std::vector<float> x{1, 2, 3, 4};
    std::vector<float> y(2, 0.0f);
    scopy(2, x.data(), 2, y.data(), 1);
    EXPECT_FLOAT_EQ(y[0], 1.0f);
    EXPECT_FLOAT_EQ(y[1], 3.0f);
}

TEST(Sasum, SumsAbsoluteValues)
{
    std::vector<float> x{-1, 2, -3};
    EXPECT_FLOAT_EQ(sasum(3, x.data(), 1), 6.0f);
}

TEST(Caxpy, ComplexArithmetic)
{
    std::vector<cfloat> x{{1, 1}};
    std::vector<cfloat> y{{0, 0}};
    caxpy(1, {0, 1}, x.data(), 1, y.data(), 1); // i * (1+i) = -1+i
    EXPECT_FLOAT_EQ(y[0].real(), -1.0f);
    EXPECT_FLOAT_EQ(y[0].imag(), 1.0f);
}

TEST(Cdotc, ConjugatesFirstArgument)
{
    std::vector<cfloat> x{{0, 1}};
    std::vector<cfloat> y{{0, 1}};
    cfloat d = cdotc(1, x.data(), 1, y.data(), 1); // conj(i)*i = 1
    EXPECT_FLOAT_EQ(d.real(), 1.0f);
    EXPECT_FLOAT_EQ(d.imag(), 0.0f);
}

TEST(Cdotu, DoesNotConjugate)
{
    std::vector<cfloat> x{{0, 1}};
    std::vector<cfloat> y{{0, 1}};
    cfloat d = cdotu(1, x.data(), 1, y.data(), 1); // i*i = -1
    EXPECT_FLOAT_EQ(d.real(), -1.0f);
    EXPECT_FLOAT_EQ(d.imag(), 0.0f);
}

TEST(Cdotc, SelfDotIsRealNonNegative)
{
    Rng rng(5);
    auto x = randomCVec(333, rng);
    cfloat d = cdotc(333, x.data(), 1, x.data(), 1);
    EXPECT_GE(d.real(), 0.0f);
    EXPECT_NEAR(d.imag(), 0.0f, 1e-4f);
}

// Property sweep: saxpy linearity across sizes and strides.
class SaxpyProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(SaxpyProperty, Linearity)
{
    auto [n, inc] = GetParam();
    Rng rng(static_cast<std::uint64_t>(n * 31 + inc));
    auto x = randomVec(n * inc, rng);
    auto y = randomVec(n * inc, rng);

    // saxpy(a, x) then saxpy(b, x) == saxpy(a+b, x)
    auto y1 = y;
    saxpy(n, 0.3f, x.data(), inc, y1.data(), inc);
    saxpy(n, 0.7f, x.data(), inc, y1.data(), inc);
    auto y2 = y;
    saxpy(n, 1.0f, x.data(), inc, y2.data(), inc);
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y1[i], y2[i], 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndStrides, SaxpyProperty,
    ::testing::Combine(::testing::Values(1, 2, 7, 64, 1000),
                       ::testing::Values(1, 2, 3)));

// Property sweep: dot symmetry and Cauchy-Schwarz.
class DotProperty : public ::testing::TestWithParam<int>
{};

TEST_P(DotProperty, SymmetricAndCauchySchwarz)
{
    int n = GetParam();
    Rng rng(static_cast<std::uint64_t>(n));
    auto x = randomVec(n, rng);
    auto y = randomVec(n, rng);
    float xy = sdot(n, x.data(), 1, y.data(), 1);
    float yx = sdot(n, y.data(), 1, x.data(), 1);
    EXPECT_FLOAT_EQ(xy, yx);
    float nx = snrm2(n, x.data(), 1);
    float ny = snrm2(n, y.data(), 1);
    EXPECT_LE(std::fabs(xy), nx * ny * (1.0f + 1e-5f) + 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DotProperty,
                         ::testing::Values(1, 3, 17, 128, 1024, 9999));

} // namespace
} // namespace mealib::mkl
