// Tests for CSR storage, SpMV and the matrix generators.

#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "minimkl/naive.hh"
#include "minimkl/sparse.hh"

namespace mealib::mkl {
namespace {

TEST(CsrFromTriplets, BuildsSortedRows)
{
    std::vector<Triplet> t{{1, 2, 3.0f}, {0, 1, 1.0f}, {1, 0, 2.0f}};
    CsrMatrix m = csrFromTriplets(2, 3, t);
    m.validate();
    EXPECT_EQ(m.nnz(), 3);
    EXPECT_EQ(m.rowPtr[0], 0);
    EXPECT_EQ(m.rowPtr[1], 1);
    EXPECT_EQ(m.rowPtr[2], 3);
    EXPECT_EQ(m.colIdx[0], 1);
    EXPECT_EQ(m.colIdx[1], 0);
    EXPECT_EQ(m.colIdx[2], 2);
}

TEST(CsrFromTriplets, SumsDuplicates)
{
    std::vector<Triplet> t{{0, 0, 1.0f}, {0, 0, 2.5f}};
    CsrMatrix m = csrFromTriplets(1, 1, t);
    EXPECT_EQ(m.nnz(), 1);
    EXPECT_FLOAT_EQ(m.vals[0], 3.5f);
}

TEST(CsrFromTriplets, OutOfRangeIsFatal)
{
    std::vector<Triplet> t{{0, 5, 1.0f}};
    EXPECT_THROW(csrFromTriplets(2, 2, t), FatalError);
}

TEST(CsrValidate, CatchesBadStructure)
{
    CsrMatrix m;
    m.rows = 1;
    m.cols = 2;
    m.rowPtr = {0, 1};
    m.colIdx = {5}; // out of range
    m.vals = {1.0f};
    EXPECT_THROW(m.validate(), FatalError);
}

TEST(Scsrmv, MatchesNaive)
{
    Rng rng(1);
    CsrMatrix m = randomGeometricGraph(100, 6.0, rng);
    std::vector<float> x(100), y(100), y_ref(100);
    for (auto &v : x)
        v = rng.uniform(-1.0f, 1.0f);
    scsrmv(m, x.data(), y.data());
    naive::spmv(m, x.data(), y_ref.data());
    // scsrmv accumulates in double, the naive oracle in float; allow
    // one-ulp-scale rounding differences.
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y[i], y_ref[i], 1e-5f);
}

TEST(Scsrmv, IdentityActsAsIdentity)
{
    std::vector<Triplet> t;
    for (std::int64_t i = 0; i < 10; ++i)
        t.push_back({i, i, 1.0f});
    CsrMatrix eye = csrFromTriplets(10, 10, t);
    Rng rng(2);
    std::vector<float> x(10), y(10);
    for (auto &v : x)
        v = rng.uniform(-5.0f, 5.0f);
    scsrmv(eye, x.data(), y.data());
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Scsrmv, EmptyRowsProduceZero)
{
    std::vector<Triplet> t{{0, 0, 4.0f}};
    CsrMatrix m = csrFromTriplets(3, 3, t);
    std::vector<float> x{1, 1, 1}, y{9, 9, 9};
    scsrmv(m, x.data(), y.data());
    EXPECT_FLOAT_EQ(y[0], 4.0f);
    EXPECT_FLOAT_EQ(y[1], 0.0f);
    EXPECT_FLOAT_EQ(y[2], 0.0f);
}

TEST(Rgg, StructureIsValidAndSymmetric)
{
    Rng rng(7);
    CsrMatrix g = randomGeometricGraph(2000, 12.0, rng);
    g.validate();
    EXPECT_EQ(g.rows, 2000);
    EXPECT_EQ(g.cols, 2000);

    // Symmetry: every (i,j) has a matching (j,i) with the same weight.
    for (std::int64_t r = 0; r < g.rows; ++r) {
        for (std::int64_t k = g.rowPtr[r]; k < g.rowPtr[r + 1]; ++k) {
            std::int64_t c = g.colIdx[k];
            bool found = false;
            for (std::int64_t k2 = g.rowPtr[c]; k2 < g.rowPtr[c + 1];
                 ++k2) {
                if (g.colIdx[k2] == r) {
                    EXPECT_FLOAT_EQ(
                        g.vals[static_cast<std::size_t>(k2)],
                        g.vals[static_cast<std::size_t>(k)]);
                    found = true;
                    break;
                }
            }
            EXPECT_TRUE(found) << "missing mirror of (" << r << "," << c
                               << ")";
        }
    }
}

TEST(Rgg, AverageDegreeNearTarget)
{
    Rng rng(11);
    CsrMatrix g = randomGeometricGraph(20000, 14.0, rng);
    // Boundary effects pull the mean below the interior expectation;
    // allow a generous band.
    EXPECT_GT(g.avgDegree(), 9.0);
    EXPECT_LT(g.avgDegree(), 16.0);
}

TEST(Rgg, NoSelfLoops)
{
    Rng rng(13);
    CsrMatrix g = randomGeometricGraph(3000, 10.0, rng);
    for (std::int64_t r = 0; r < g.rows; ++r)
        for (std::int64_t k = g.rowPtr[r]; k < g.rowPtr[r + 1]; ++k)
            EXPECT_NE(g.colIdx[k], r);
}

TEST(Rgg, DeterministicForSeed)
{
    Rng r1(17), r2(17);
    CsrMatrix a = randomGeometricGraph(1000, 8.0, r1);
    CsrMatrix b = randomGeometricGraph(1000, 8.0, r2);
    EXPECT_EQ(a.nnz(), b.nnz());
    EXPECT_EQ(a.colIdx, b.colIdx);
}

TEST(Scsrmv, LinearityProperty)
{
    Rng rng(19);
    CsrMatrix m = randomGeometricGraph(500, 6.0, rng);
    std::vector<float> x1(500), x2(500), xs(500);
    for (std::size_t i = 0; i < 500; ++i) {
        x1[i] = rng.uniform(-1.0f, 1.0f);
        x2[i] = rng.uniform(-1.0f, 1.0f);
        xs[i] = x1[i] + x2[i];
    }
    std::vector<float> y1(500), y2(500), ys(500);
    scsrmv(m, x1.data(), y1.data());
    scsrmv(m, x2.data(), y2.data());
    scsrmv(m, xs.data(), ys.data());
    for (std::size_t i = 0; i < 500; ++i)
        EXPECT_NEAR(ys[i], y1[i] + y2[i], 1e-4f);
}

} // namespace
} // namespace mealib::mkl
