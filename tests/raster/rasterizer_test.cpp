#include "src/raster/rasterizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "src/geometry/point_in_polygon.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace stj {
namespace {

using CellSet = std::set<std::pair<uint32_t, uint32_t>>;

CellSet PartialCells(const RasterCoverage& cov) {
  CellSet cells;
  for (size_t row = 0; row < cov.partial_by_row.size(); ++row) {
    for (const uint32_t cx : cov.partial_by_row[row]) {
      cells.insert({cx, cov.y0 + static_cast<uint32_t>(row)});
    }
  }
  return cells;
}

CellSet FullCells(const RasterCoverage& cov) {
  CellSet cells;
  for (size_t row = 0; row < cov.full_runs_by_row.size(); ++row) {
    for (const auto& [first, last] : cov.full_runs_by_row[row]) {
      for (uint32_t cx = first; cx <= last; ++cx) {
        cells.insert({cx, cov.y0 + static_cast<uint32_t>(row)});
      }
    }
  }
  return cells;
}

TEST(Rasterizer, SquareAlignedInsideCells) {
  // Grid over [0,8]^2 at order 3: cell size 1x1 (plus hair inflation).
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{8, 8}), 3);
  const Rasterizer rasterizer(&grid);
  // Square [1.25, 6.75]^2: boundary cells are the rim, interior is full.
  const Polygon square = test::Square(1.25, 1.25, 6.75, 6.75);
  const RasterCoverage cov = rasterizer.Rasterize(square);
  const CellSet partial = PartialCells(cov);
  const CellSet full = FullCells(cov);
  // Full cells: [2..5]^2 = 16 cells.
  EXPECT_EQ(full.size(), 16u);
  for (uint32_t cy = 2; cy <= 5; ++cy) {
    for (uint32_t cx = 2; cx <= 5; ++cx) {
      EXPECT_TRUE(full.count({cx, cy})) << cx << "," << cy;
    }
  }
  // Boundary passes through the rim ring of [1..6]^2 minus the interior.
  EXPECT_EQ(partial.size(), 36u - 16u);
  // Full and partial are disjoint.
  for (const auto& cell : full) EXPECT_FALSE(partial.count(cell));
}

TEST(Rasterizer, TinyPolygonHasOnlyPartialCells) {
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}), 4);
  const Rasterizer rasterizer(&grid);
  const Polygon dot = test::Square(50.1, 50.1, 50.2, 50.2);
  const RasterCoverage cov = rasterizer.Rasterize(dot);
  EXPECT_EQ(cov.FullCount(), 0u);
  EXPECT_GE(cov.PartialCount(), 1u);
}

TEST(Rasterizer, HolePreventsFullCells) {
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{16, 16}), 4);
  const Rasterizer rasterizer(&grid);
  // Donut: full cells must exist in the body but not in the hole.
  const Polygon donut = test::SquareWithHole(1.25, 1.25, 14.75, 14.75, 3.0);
  const RasterCoverage cov = rasterizer.Rasterize(donut);
  const CellSet full = FullCells(cov);
  ASSERT_FALSE(full.empty());
  for (const auto& [cx, cy] : full) {
    // Sample the cell centre: it must be in the polygon's interior (not in
    // the hole).
    const Box cell = grid.CellBox(cx, cy);
    EXPECT_EQ(Locate(cell.Center(), donut), Location::kInterior)
        << cx << "," << cy;
  }
  // The hole's central cell is neither partial nor full.
  const uint32_t hole_cx = grid.CellX(8.0);
  const uint32_t hole_cy = grid.CellY(8.0);
  EXPECT_FALSE(full.count({hole_cx, hole_cy}));
  EXPECT_FALSE(PartialCells(cov).count({hole_cx, hole_cy}));
}

// Property: full cells are entirely inside; every point of the polygon is
// covered by partial ∪ full; partial ∩ full = ∅.
TEST(RasterizerProperty, CoverageInvariantsOnRandomBlobs) {
  Rng rng(121);
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}), 7);
  const Rasterizer rasterizer(&grid);
  for (int round = 0; round < 40; ++round) {
    const Polygon blob = test::RandomBlob(
        &rng, Point{rng.Uniform(10, 90), rng.Uniform(10, 90)},
        rng.LogUniform(0.5, 15.0),
        static_cast<size_t>(rng.UniformInt(6, 200)),
        /*hole_probability=*/0.3);
    const RasterCoverage cov = rasterizer.Rasterize(blob);
    const CellSet partial = PartialCells(cov);
    const CellSet full = FullCells(cov);

    for (const auto& cell : full) {
      ASSERT_FALSE(partial.count(cell)) << "round " << round;
    }
    // Full cells: all four corners and the centre lie in the closed polygon.
    for (const auto& [cx, cy] : full) {
      const Box cell = grid.CellBox(cx, cy);
      ASSERT_NE(Locate(cell.Center(), blob), Location::kExterior);
      const Point corners[] = {cell.min, cell.max,
                               Point{cell.min.x, cell.max.y},
                               Point{cell.max.x, cell.min.y}};
      for (const Point& corner : corners) {
        ASSERT_NE(Locate(corner, blob), Location::kExterior)
            << "round " << round << " cell " << cx << "," << cy;
      }
    }
    // Random points inside the polygon fall in covered cells.
    const Box bounds = blob.Bounds();
    for (int probe = 0; probe < 100; ++probe) {
      const Point p{rng.Uniform(bounds.min.x, bounds.max.x),
                    rng.Uniform(bounds.min.y, bounds.max.y)};
      if (Locate(p, blob) != Location::kInterior) continue;
      const auto cell = std::make_pair(grid.CellX(p.x), grid.CellY(p.y));
      ASSERT_TRUE(partial.count(cell) || full.count(cell))
          << "round " << round << " uncovered interior point " << p.x << ","
          << p.y;
    }
    // Random points in full cells are inside the polygon.
    for (const auto& [cx, cy] : full) {
      const Box cell = grid.CellBox(cx, cy);
      const Point p{rng.Uniform(cell.min.x, cell.max.x),
                    rng.Uniform(cell.min.y, cell.max.y)};
      ASSERT_EQ(Locate(p, blob), Location::kInterior) << "round " << round;
      break;  // one sample per polygon keeps the test fast
    }
  }
}

TEST(Rasterizer, HoleLeavingItsShellStaysInTheWindow) {
  // A strict load accepts a hole that crosses its shell; the raster window
  // covers the hole's rows too, so the coverage (and the sanitizer builds'
  // bounds checks) hold for it.
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{32, 32}), 5);
  const Rasterizer rasterizer(&grid);
  const Polygon poly(
      Ring({Point{0.5, 0.5}, Point{10.5, 0.5}, Point{10.5, 10.5},
            Point{0.5, 10.5}}),
      {Ring({Point{2.5, 2.5}, Point{4.5, 2.5}, Point{4.5, 20.5},
             Point{2.5, 20.5}})});
  const RasterCoverage cov = rasterizer.Rasterize(poly);
  EXPECT_EQ(cov.y0, grid.CellY(0.5));
  ASSERT_EQ(cov.partial_by_row.size(), grid.CellY(20.5) - cov.y0 + 1);
  // The hole's top edge is marked in its own row, above the shell.
  const auto& top = cov.partial_by_row[grid.CellY(20.5) - cov.y0];
  EXPECT_TRUE(std::binary_search(top.begin(), top.end(), grid.CellX(3.5)));
}

TEST(Rasterizer, EmptyPolygon) {
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{1, 1}), 4);
  const Rasterizer rasterizer(&grid);
  const RasterCoverage cov = rasterizer.Rasterize(Polygon{});
  EXPECT_EQ(cov.PartialCount(), 0u);
  EXPECT_EQ(cov.FullCount(), 0u);
}

}  // namespace
}  // namespace stj
