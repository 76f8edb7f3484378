// Tests for the accelerator-layer mesh NoC model.

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "hwmodel/profile.hh"
#include "noc/mesh.hh"

namespace mealib::noc {
namespace {

TEST(Mesh, HopCountsXy)
{
    Mesh m(hwmodel::mealibMeshParams()); // 8x4
    EXPECT_EQ(m.hops(0, 0), 0u);
    EXPECT_EQ(m.hops(0, 7), 7u);   // across one row
    EXPECT_EQ(m.hops(0, 24), 3u);  // down one column
    EXPECT_EQ(m.hops(0, 31), 10u); // opposite corner: 7 + 3
    EXPECT_EQ(m.hops(31, 0), 10u); // symmetric
}

TEST(Mesh, HopsOutOfRangeIsFatal)
{
    Mesh m(hwmodel::mealibMeshParams());
    EXPECT_THROW(m.hops(0, 32), FatalError);
}

TEST(Mesh, TransferTimeGrowsWithBytesAndHops)
{
    Mesh m(hwmodel::mealibMeshParams());
    double near_small = m.transferSeconds(0, 1, 64);
    double near_big = m.transferSeconds(0, 1, 64_KiB);
    double far_small = m.transferSeconds(0, 31, 64);
    EXPECT_LT(near_small, near_big);
    EXPECT_LT(near_small, far_small);
}

TEST(Mesh, ZeroBytesIsFree)
{
    Mesh m(hwmodel::mealibMeshParams());
    EXPECT_DOUBLE_EQ(m.transferSeconds(0, 31, 0), 0.0);
}

TEST(Mesh, EnergyProportionalToBytesTimesHops)
{
    Mesh m(hwmodel::mealibMeshParams());
    double e1 = m.transferJoules(1, 1024);
    double e2 = m.transferJoules(2, 1024);
    double e3 = m.transferJoules(1, 2048);
    EXPECT_DOUBLE_EQ(e2, 2.0 * e1);
    EXPECT_DOUBLE_EQ(e3, 2.0 * e1);
}

TEST(Mesh, Table5PowerAndArea)
{
    Mesh m(hwmodel::mealibMeshParams());
    // Table 5: NoC (router + link) 0.095 W and 1.44 mm^2.
    EXPECT_NEAR(m.leakageW(), 0.095, 0.001);
    EXPECT_NEAR(m.areaMm2(), 1.44, 0.01);
}

TEST(Mesh, ReductionCostPositiveAndBounded)
{
    Mesh m(hwmodel::mealibMeshParams());
    Cost c = m.reduceToTile0(64);
    EXPECT_GT(c.seconds, 0.0);
    EXPECT_GT(c.joules, 0.0);
    // A 64-byte-per-tile reduction should be far under a microsecond.
    EXPECT_LT(c.seconds, 1e-6);
}

TEST(Mesh, BadConfigIsFatal)
{
    MeshParams p = hwmodel::mealibMeshParams();
    p.width = 0;
    EXPECT_THROW(Mesh{p}, FatalError);
}

} // namespace
} // namespace mealib::noc
