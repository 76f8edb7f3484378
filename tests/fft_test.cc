// Tests for the Stockham FFT and the guru plan interface: oracle
// comparison, round-trip, Parseval, linearity, shift theorem, strides,
// batching, rank-2 and rank-0 (copy) plans.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "minimkl/fft.hh"
#include "minimkl/naive.hh"

namespace mealib::mkl {
namespace {

std::vector<cfloat>
randomSignal(std::int64_t n, Rng &rng)
{
    std::vector<cfloat> v(static_cast<std::size_t>(n));
    for (auto &x : v)
        x = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};
    return v;
}

double
maxAbsDiff(const std::vector<cfloat> &a, const std::vector<cfloat> &b)
{
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, static_cast<double>(std::abs(a[i] - b[i])));
    return m;
}

class FftSizes : public ::testing::TestWithParam<std::int64_t>
{};

TEST_P(FftSizes, MatchesNaiveDft)
{
    std::int64_t n = GetParam();
    Rng rng(static_cast<std::uint64_t>(n));
    auto in = randomSignal(n, rng);
    std::vector<cfloat> out(in.size()), ref(in.size());

    FftPlan::dft1d(n, FftDirection::Forward).execute(in.data(),
                                                     out.data());
    naiveDft(in.data(), ref.data(), n, FftDirection::Forward);
    EXPECT_LT(maxAbsDiff(out, ref),
              1e-3 * std::sqrt(static_cast<double>(n)));
}

TEST_P(FftSizes, ForwardInverseRoundTrip)
{
    std::int64_t n = GetParam();
    Rng rng(static_cast<std::uint64_t>(n) + 1);
    auto in = randomSignal(n, rng);
    std::vector<cfloat> freq(in.size()), back(in.size());

    FftPlan::dft1d(n, FftDirection::Forward).execute(in.data(),
                                                     freq.data());
    FftPlan::dft1d(n, FftDirection::Inverse).execute(freq.data(),
                                                     back.data());
    fftNormalize(back.data(), n, n);
    EXPECT_LT(maxAbsDiff(in, back), 1e-4 * static_cast<double>(n));
}

TEST_P(FftSizes, ParsevalHolds)
{
    std::int64_t n = GetParam();
    Rng rng(static_cast<std::uint64_t>(n) + 2);
    auto in = randomSignal(n, rng);
    std::vector<cfloat> out(in.size());
    FftPlan::dft1d(n, FftDirection::Forward).execute(in.data(),
                                                     out.data());
    double et = 0.0, ef = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
        et += std::norm(in[static_cast<std::size_t>(i)]);
        ef += std::norm(out[static_cast<std::size_t>(i)]);
    }
    EXPECT_NEAR(ef / (et * static_cast<double>(n)), 1.0, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Pow2, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024,
                                           4096));

TEST(Fft, ImpulseGivesFlatSpectrum)
{
    const std::int64_t n = 64;
    std::vector<cfloat> in(n, cfloat{}), out(n);
    in[0] = {1.0f, 0.0f};
    FftPlan::dft1d(n, FftDirection::Forward).execute(in.data(),
                                                     out.data());
    for (auto v : out) {
        EXPECT_NEAR(v.real(), 1.0f, 1e-5f);
        EXPECT_NEAR(v.imag(), 0.0f, 1e-5f);
    }
}

TEST(Fft, SingleToneLandsInOneBin)
{
    const std::int64_t n = 128, k = 5;
    std::vector<cfloat> in(n), out(n);
    for (std::int64_t t = 0; t < n; ++t) {
        double a = 2.0 * M_PI * k * t / n;
        in[static_cast<std::size_t>(t)] = {
            static_cast<float>(std::cos(a)),
            static_cast<float>(std::sin(a))};
    }
    FftPlan::dft1d(n, FftDirection::Forward).execute(in.data(),
                                                     out.data());
    for (std::int64_t b = 0; b < n; ++b) {
        double mag = std::abs(out[static_cast<std::size_t>(b)]);
        if (b == k)
            EXPECT_NEAR(mag, static_cast<double>(n), 1e-2);
        else
            EXPECT_LT(mag, 1e-2);
    }
}

TEST(Fft, LinearityProperty)
{
    const std::int64_t n = 256;
    Rng rng(5);
    auto a = randomSignal(n, rng);
    auto b = randomSignal(n, rng);
    std::vector<cfloat> sum(n), fa(n), fb(n), fsum(n);
    for (std::int64_t i = 0; i < n; ++i)
        sum[static_cast<std::size_t>(i)] =
            a[static_cast<std::size_t>(i)] +
            b[static_cast<std::size_t>(i)];
    auto plan = FftPlan::dft1d(n, FftDirection::Forward);
    plan.execute(a.data(), fa.data());
    plan.execute(b.data(), fb.data());
    plan.execute(sum.data(), fsum.data());
    for (std::int64_t i = 0; i < n; ++i) {
        auto idx = static_cast<std::size_t>(i);
        EXPECT_NEAR(std::abs(fsum[idx] - (fa[idx] + fb[idx])), 0.0,
                    1e-3);
    }
}

TEST(Fft, AgreesWithRecursiveOracle)
{
    const std::int64_t n = 512;
    Rng rng(6);
    auto in = randomSignal(n, rng);
    std::vector<cfloat> out(n), ref(n);
    FftPlan::dft1d(n, FftDirection::Forward).execute(in.data(),
                                                     out.data());
    naive::fftRecursive(in.data(), ref.data(), n, -1);
    EXPECT_LT(maxAbsDiff(out, ref), 1e-3);
}

TEST(Fft, StridedTransform)
{
    // Transform every other element of a 2n buffer.
    const std::int64_t n = 64;
    Rng rng(7);
    auto dense = randomSignal(n, rng);
    std::vector<cfloat> interleaved(2 * n, {99.0f, 99.0f});
    for (std::int64_t i = 0; i < n; ++i)
        interleaved[static_cast<std::size_t>(2 * i)] =
            dense[static_cast<std::size_t>(i)];

    std::vector<cfloat> out_strided(2 * n, {0.0f, 0.0f});
    FftPlan({{n, 2, 2}}, {}, FftDirection::Forward)
        .execute(interleaved.data(), out_strided.data());

    std::vector<cfloat> ref(n);
    FftPlan::dft1d(n, FftDirection::Forward).execute(dense.data(),
                                                     ref.data());
    for (std::int64_t i = 0; i < n; ++i)
        EXPECT_NEAR(
            std::abs(out_strided[static_cast<std::size_t>(2 * i)] -
                     ref[static_cast<std::size_t>(i)]),
            0.0, 1e-3);
}

TEST(Fft, BatchedMatchesIndividual)
{
    const std::int64_t n = 128, batch = 9;
    Rng rng(8);
    auto in = randomSignal(n * batch, rng);
    std::vector<cfloat> out_batched(in.size());
    FftPlan::dft1dBatched(n, batch, n, FftDirection::Forward)
        .execute(in.data(), out_batched.data());

    auto single = FftPlan::dft1d(n, FftDirection::Forward);
    std::vector<cfloat> ref(static_cast<std::size_t>(n));
    for (std::int64_t b = 0; b < batch; ++b) {
        single.execute(in.data() + b * n, ref.data());
        for (std::int64_t i = 0; i < n; ++i)
            EXPECT_NEAR(std::abs(out_batched[static_cast<std::size_t>(
                            b * n + i)] -
                                 ref[static_cast<std::size_t>(i)]),
                        0.0, 1e-3);
    }
}

TEST(Fft, Rank2SeparableAgainstRowColumn)
{
    const std::int64_t r = 16, c = 32;
    Rng rng(9);
    auto in = randomSignal(r * c, rng);

    std::vector<cfloat> out2d(in.size());
    FftPlan::dft2d(r, c, FftDirection::Forward).execute(in.data(),
                                                        out2d.data());

    // Manual row-column: rows first, then columns via gather.
    std::vector<cfloat> tmp(in.size()), ref(in.size());
    auto rows = FftPlan::dft1d(c, FftDirection::Forward);
    for (std::int64_t i = 0; i < r; ++i)
        rows.execute(in.data() + i * c, tmp.data() + i * c);
    auto cols = FftPlan::dft1d(r, FftDirection::Forward);
    std::vector<cfloat> colbuf(static_cast<std::size_t>(r)),
        colout(static_cast<std::size_t>(r));
    for (std::int64_t j = 0; j < c; ++j) {
        for (std::int64_t i = 0; i < r; ++i)
            colbuf[static_cast<std::size_t>(i)] =
                tmp[static_cast<std::size_t>(i * c + j)];
        cols.execute(colbuf.data(), colout.data());
        for (std::int64_t i = 0; i < r; ++i)
            ref[static_cast<std::size_t>(i * c + j)] =
                colout[static_cast<std::size_t>(i)];
    }
    EXPECT_LT(maxAbsDiff(out2d, ref), 1e-3);
}

TEST(Fft, InPlaceMatchesOutOfPlace)
{
    const std::int64_t n = 256;
    Rng rng(10);
    auto in = randomSignal(n, rng);
    auto inplace = in;
    std::vector<cfloat> out(in.size());
    auto plan = FftPlan::dft1d(n, FftDirection::Forward);
    plan.execute(in.data(), out.data());
    plan.execute(inplace.data(), inplace.data());
    EXPECT_LT(maxAbsDiff(out, inplace), 1e-5);
}

TEST(Fft, Rank0CopyWithLoopsTransposes)
{
    // A rank-0 plan with two loop dims performing a 4x6 transpose —
    // exactly how Listing 1 uses the guru interface for data reshape.
    const std::int64_t r = 4, c = 6;
    Rng rng(11);
    auto in = randomSignal(r * c, rng);
    std::vector<cfloat> out(in.size());
    FftPlan({}, {{r, c, 1}, {c, 1, r}}, FftDirection::Forward)
        .execute(in.data(), out.data());
    for (std::int64_t i = 0; i < r; ++i)
        for (std::int64_t j = 0; j < c; ++j)
            EXPECT_EQ(out[static_cast<std::size_t>(j * r + i)],
                      in[static_cast<std::size_t>(i * c + j)]);
}

TEST(Fft, CopyPlanReportsZeroFlops)
{
    FftPlan copy({}, {{8, 1, 1}}, FftDirection::Forward);
    EXPECT_TRUE(copy.isCopy());
    EXPECT_EQ(copy.batchCount(), 8);
}

TEST(Fft, NonPowerOfTwoIsFatal)
{
    EXPECT_THROW(FftPlan::dft1d(24, FftDirection::Forward),
                 mealib::FatalError);
}

TEST(Fft, ShiftTheorem)
{
    // Circularly shifting the input multiplies the spectrum by a phase;
    // magnitudes must be unchanged.
    const std::int64_t n = 128;
    Rng rng(12);
    auto in = randomSignal(n, rng);
    std::vector<cfloat> shifted(in.size());
    for (std::int64_t i = 0; i < n; ++i)
        shifted[static_cast<std::size_t>((i + 1) % n)] =
            in[static_cast<std::size_t>(i)];
    std::vector<cfloat> f0(in.size()), f1(in.size());
    auto plan = FftPlan::dft1d(n, FftDirection::Forward);
    plan.execute(in.data(), f0.data());
    plan.execute(shifted.data(), f1.data());
    for (std::int64_t i = 0; i < n; ++i)
        EXPECT_NEAR(std::abs(f0[static_cast<std::size_t>(i)]),
                    std::abs(f1[static_cast<std::size_t>(i)]), 1e-3);
}

} // namespace
} // namespace mealib::mkl
