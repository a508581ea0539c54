#include "src/raster/grid.h"

#include <limits>

#include <gtest/gtest.h>

namespace stj {
namespace {

TEST(RasterGrid, CellLookupCoversDataspace) {
  const Box space = Box::Of(Point{0, 0}, Point{100, 50});
  const RasterGrid grid(space, 4);  // 16 x 16 cells
  EXPECT_EQ(grid.CellsPerSide(), 16u);
  EXPECT_EQ(grid.CellX(grid.Dataspace().min.x), 0u);
  EXPECT_EQ(grid.CellY(grid.Dataspace().min.y), 0u);
  EXPECT_EQ(grid.CellX(grid.Dataspace().max.x), 15u);
  EXPECT_EQ(grid.CellY(grid.Dataspace().max.y), 15u);
  // Out-of-range values are clamped.
  EXPECT_EQ(grid.CellX(-1000.0), 0u);
  EXPECT_EQ(grid.CellX(1000.0), 15u);
}

TEST(RasterGrid, FarOffGridCoordinatesClampBeforeTheCast) {
  // 1e12 is about 2^40 cells past this grid: the lookup must clamp in
  // double, before the conversion to a cell index would overflow (UBSan's
  // float-cast-overflow). NaN lands on cell 0 the same way.
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{10, 10}), 4);
  for (const double far :
       {1e12, 1e300, std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(grid.CellX(far), 15u) << far;
    EXPECT_EQ(grid.CellY(far), 15u) << far;
    EXPECT_EQ(grid.CellX(-far), 0u) << -far;
    EXPECT_EQ(grid.CellY(-far), 0u) << -far;
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(grid.CellX(nan), 0u);
  EXPECT_EQ(grid.CellY(nan), 0u);
}

TEST(RasterGrid, CellBoxesTileTheSpace) {
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{8, 8}), 3);
  double prev_max = grid.Dataspace().min.x;
  for (uint32_t cx = 0; cx < grid.CellsPerSide(); ++cx) {
    const Box cell = grid.CellBox(cx, 0);
    EXPECT_DOUBLE_EQ(cell.min.x, prev_max);
    prev_max = cell.max.x;
  }
  EXPECT_DOUBLE_EQ(prev_max, grid.Dataspace().max.x);
}

TEST(RasterGrid, PointMapsIntoItsCellBox) {
  const RasterGrid grid(Box::Of(Point{-10, -10}, Point{10, 10}), 5);
  const Point probes[] = {{0, 0}, {-9.99, -9.99}, {9.99, 9.99}, {3.7, -2.1}};
  for (const Point& p : probes) {
    const uint32_t cx = grid.CellX(p.x);
    const uint32_t cy = grid.CellY(p.y);
    EXPECT_TRUE(grid.CellBox(cx, cy).Contains(p))
        << p.x << "," << p.y << " -> " << cx << "," << cy;
  }
}

TEST(RasterGrid, RowCenterIsInsideRow) {
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{1, 1}), 6);
  for (uint32_t cy = 0; cy < grid.CellsPerSide(); cy += 7) {
    const double yc = grid.RowCenterY(cy);
    EXPECT_GT(yc, grid.RowY(cy));
    EXPECT_LT(yc, grid.RowY(cy + 1));
    EXPECT_EQ(grid.CellY(yc), cy);
  }
}

TEST(RasterGrid, InflationKeepsBoundaryObjectsInterior) {
  // Objects at the exact dataspace boundary must land strictly inside the
  // grid (the constructor inflates by a hair).
  const Box space = Box::Of(Point{0, 0}, Point{100, 100});
  const RasterGrid grid(space, 10);
  EXPECT_LT(grid.Dataspace().min.x, 0.0);
  EXPECT_GT(grid.Dataspace().max.x, 100.0);
  EXPECT_EQ(grid.CellX(0.0), 0u);
  EXPECT_LT(grid.CellX(100.0), grid.CellsPerSide());
}

TEST(RasterGrid, HilbertIdsMatchUnderlyingCurve) {
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{1, 1}), 8);
  EXPECT_EQ(grid.CellIdOf(3, 5), HilbertXYToD(8, 3, 5));
}

TEST(RasterGrid, OrderOutsideOneToMaxIsAContractViolation) {
  const Box space = Box::Of(Point{0, 0}, Point{1, 1});
  EXPECT_EQ(RasterGrid(space, kMaxGridOrder).CellsPerSide(), 1u << 16);
  EXPECT_DEATH(RasterGrid(space, 0), "check failed");
  EXPECT_DEATH(RasterGrid(space, kMaxGridOrder + 1), "check failed");
  EXPECT_DEATH(RasterGrid(space, 40), "check failed");
}

}  // namespace
}  // namespace stj
