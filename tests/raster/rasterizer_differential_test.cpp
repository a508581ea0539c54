#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/datasets/scenarios.h"
#include "src/raster/rasterizer.h"
#include "src/util/rng.h"

// The rasterizer walks each ring's vertices, computes each vertex's cell
// once and marks an edge inside one row's open slab without the per-row
// loop. Its output must be the same bytes as the edge-at-a-time loop it
// replaced, which this file keeps verbatim as the oracle.

namespace stj {
namespace {

template <typename Row>
void ResetRows(std::vector<Row>* rows, size_t n) {
  const size_t keep = std::min(rows->size(), n);
  rows->resize(n);
  for (size_t i = 0; i < keep; ++i) (*rows)[i].clear();
}

/// Rasterizer::RasterizeInto as it was before the vertex walk: every edge
/// through Polygon::ForEachEdge and the per-row loop. The body is verbatim;
/// only the class around it is new.
struct EdgeLoopRasterizer {
  const RasterGrid* grid_;

  void RasterizeInto(const Polygon& poly,
                     std::vector<std::vector<double>>* crossings,
                     RasterCoverage* out) const {
    out->y0 = 0;
    if (poly.Empty()) {
      ResetRows(&out->partial_by_row, 0);
      ResetRows(&out->full_runs_by_row, 0);
      return;
    }
    const Box& bounds = poly.Bounds();

    // Raster rows (with closed-boundary widening so that geometry exactly on
    // a cell boundary marks both adjacent cells).
    uint32_t wy0 = grid_->CellY(bounds.min.y);
    const uint32_t wy1 = grid_->CellY(bounds.max.y);
    if (wy0 > 0 && bounds.min.y == grid_->RowY(wy0)) --wy0;
    out->y0 = wy0;
    const uint32_t num_rows = wy1 - wy0 + 1;
    ResetRows(&out->partial_by_row, num_rows);
    ResetRows(&out->full_runs_by_row, num_rows);

    // Crossings of the polygon boundary with each row's centre line, used for
    // the parity fill. Half-open vertex rule keeps parity consistent.
    ResetRows(crossings, num_rows);

    poly.ForEachEdge([&](const Segment& e) {
      const double ylo = std::min(e.a.y, e.b.y);
      const double yhi = std::max(e.a.y, e.b.y);
      const double xlo = std::min(e.a.x, e.b.x);
      const double xhi = std::max(e.a.x, e.b.x);
      uint32_t row_lo = grid_->CellY(ylo);
      const uint32_t row_hi = grid_->CellY(yhi);
      if (row_lo > 0 && ylo == grid_->RowY(row_lo)) --row_lo;

      // Mark boundary cells row by row.
      const double dx = e.b.x - e.a.x;
      const double dy = e.b.y - e.a.y;
      for (uint32_t row = row_lo; row <= row_hi; ++row) {
        double seg_xlo = xlo;
        double seg_xhi = xhi;
        if (dy != 0.0) {
          // X-extent of the edge within this row's y-slab.
          const double band_lo = std::max(ylo, grid_->RowY(row));
          const double band_hi = std::min(yhi, grid_->RowY(row + 1));
          const double x_at_lo = e.a.x + dx * ((band_lo - e.a.y) / dy);
          const double x_at_hi = e.a.x + dx * ((band_hi - e.a.y) / dy);
          seg_xlo = std::max(xlo, std::min(x_at_lo, x_at_hi));
          seg_xhi = std::min(xhi, std::max(x_at_lo, x_at_hi));
        }
        uint32_t cx_lo = grid_->CellX(seg_xlo);
        const uint32_t cx_hi = grid_->CellX(seg_xhi);
        if (cx_lo > 0 && seg_xlo == grid_->ColumnX(cx_lo)) --cx_lo;
        auto& row_cells = out->partial_by_row[row - wy0];
        // Consecutive short edges often end in the cell the previous one
        // marked; the row is sorted and de-duplicated below, so skipping
        // that repeat changes nothing but the push.
        if (cx_lo == cx_hi && !row_cells.empty() && row_cells.back() == cx_lo) {
          continue;
        }
        for (uint32_t cx = cx_lo; cx <= cx_hi; ++cx) row_cells.push_back(cx);
      }

      // Record centre-line crossings (rows whose centre y is crossed by the
      // edge under the half-open rule a.y <= yc < b.y).
      if (dy != 0.0) {
        const double y_enter = std::min(e.a.y, e.b.y);
        const double y_exit = std::max(e.a.y, e.b.y);
        // Centre of row cy is RowY(cy) + h/2; find rows with
        // y_enter <= centre < y_exit.
        uint32_t first = grid_->CellY(y_enter);
        if (grid_->RowCenterY(first) < y_enter) ++first;
        uint32_t last = grid_->CellY(y_exit);
        if (last >= grid_->CellsPerSide() ||
            grid_->RowCenterY(last) >= y_exit) {
          if (last == 0) return;  // edge entirely below the first centre line
          --last;
        }
        for (uint32_t row = first; row <= last && row <= wy1; ++row) {
          if (row < wy0) continue;
          const double yc = grid_->RowCenterY(row);
          const double x = e.a.x + dx * ((yc - e.a.y) / dy);
          (*crossings)[row - wy0].push_back(x);
        }
      }
    });

    // Canonicalise partial cells and fill interior runs per row.
    for (uint32_t row = 0; row < num_rows; ++row) {
      auto& partial = out->partial_by_row[row];
      std::sort(partial.begin(), partial.end());
      partial.erase(std::unique(partial.begin(), partial.end()), partial.end());
      auto& xs = (*crossings)[row];
      std::sort(xs.begin(), xs.end());

      auto gap_is_inside = [&](uint32_t first_col) {
        // Parity of boundary crossings left of the first gap cell's centre.
        const double cx = grid_->ColumnX(first_col) + 0.5 * grid_->CellWidth();
        const size_t count = static_cast<size_t>(
            std::lower_bound(xs.begin(), xs.end(), cx) - xs.begin());
        return (count & 1) != 0;
      };

      auto& full_runs = out->full_runs_by_row[row];
      if (partial.empty()) continue;  // no boundary here: nothing inside either
      // Gaps strictly between consecutive partial cells can be interior; the
      // window margins (left of the first / right of the last partial cell)
      // are always exterior because the boundary bounds the polygon.
      for (size_t i = 0; i + 1 < partial.size(); ++i) {
        const uint32_t gap_first = partial[i] + 1;
        const uint32_t gap_last = partial[i + 1] - 1;
        if (gap_first > gap_last) continue;
        if (gap_is_inside(gap_first)) full_runs.emplace_back(gap_first, gap_last);
      }
    }
  }
};

/// True when the edge loop would write below its raster window: CellY puts
/// the polygon's lowest vertex in row w > 0 although it lies below
/// RowY(w), so the window starts at w, and another edge starts exactly on
/// RowY(w), so the loop also marks row w - 1. The vertex walk stops at the
/// window instead; such polygons cannot be compared with the loop.
bool EdgeLoopLeavesItsWindow(const RasterGrid& grid, const Polygon& poly) {
  const Box& bounds = poly.Bounds();
  uint32_t wy0 = grid.CellY(bounds.min.y);
  if (wy0 > 0 && bounds.min.y == grid.RowY(wy0)) --wy0;
  bool leaves = false;
  poly.ForEachEdge([&](const Segment& e) {
    const double ylo = std::min(e.a.y, e.b.y);
    const uint32_t row_lo = grid.CellY(ylo);
    leaves = leaves || (row_lo == wy0 && row_lo > 0 && ylo == grid.RowY(row_lo));
  });
  return leaves;
}

/// Rasterises polygons with both implementations and compares coverages.
class Differential {
 public:
  explicit Differential(const RasterGrid* grid)
      : grid_(grid), rasterizer_(grid), oracle_{grid} {}

  /// Adds a failure naming \p label unless both coverages are identical.
  /// A polygon the edge loop cannot rasterise inside its window is only
  /// rasterised by the vertex walk, whose rows must then be the window's
  /// (the sanitizer builds check that nothing is written outside them).
  void Check(const Polygon& poly, const std::string& label) {
    rasterizer_.Rasterize(poly, &got_);
    if (EdgeLoopLeavesItsWindow(*grid_, poly)) {
      ++outside_window_;
      const Box& bounds = poly.Bounds();
      EXPECT_EQ(got_.y0, grid_->CellY(bounds.min.y)) << label;
      EXPECT_EQ(got_.partial_by_row.size(),
                grid_->CellY(bounds.max.y) - got_.y0 + 1)
          << label;
      EXPECT_GT(got_.PartialCount(), 0u) << label;
      return;
    }
    oracle_.RasterizeInto(poly, &oracle_crossings_, &want_);
    ++compared_;
    EXPECT_EQ(got_.y0, want_.y0) << label;
    EXPECT_EQ(got_.partial_by_row, want_.partial_by_row) << label;
    EXPECT_EQ(got_.full_runs_by_row, want_.full_runs_by_row) << label;
  }

  size_t compared() const { return compared_; }
  size_t outside_window() const { return outside_window_; }

 private:
  const RasterGrid* grid_;
  Rasterizer rasterizer_;
  EdgeLoopRasterizer oracle_;
  RasterCoverage got_;
  RasterCoverage want_;
  std::vector<std::vector<double>> oracle_crossings_;
  size_t compared_ = 0;
  size_t outside_window_ = 0;
};

TEST(RasterizerDifferential, DatasetsAtEveryGridOrder) {
  for (const char* name : {"TC", "TZ", "OBE", "OPE", "OLE"}) {
    for (const uint64_t seed : {7u, 11u}) {
      const Dataset dataset = BuildDataset(name, 0.02, seed);
      ASSERT_FALSE(dataset.objects.empty()) << name;
      Box bounds;
      for (const SpatialObject& object : dataset.objects) {
        bounds.Expand(object.geometry.Bounds());
      }
      for (const uint32_t order : {1u, 2u, 4u, 9u, 12u, 16u}) {
        const RasterGrid grid(bounds, order);
        Differential differential(&grid);
        for (size_t i = 0; i < dataset.objects.size(); ++i) {
          differential.Check(dataset.objects[i].geometry,
                             std::string(name) + " seed " +
                                 std::to_string(seed) + " order " +
                                 std::to_string(order) + " object " +
                                 std::to_string(i));
          if (HasFailure()) return;
        }
      }
    }
  }
}

/// Coordinates that sit on the single-row shortcut's edges in one cell's
/// neighbourhood of \p grid: the column line and row line themselves, a
/// row's centre line, one ulp either side of each, and points inside.
struct SpecialCoordinates {
  std::vector<double> xs;
  std::vector<double> ys;

  SpecialCoordinates(const RasterGrid& grid, uint32_t c, uint32_t r) {
    const double w = grid.CellWidth();
    const double h = grid.CellHeight();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double x : {grid.ColumnX(c), grid.ColumnX(c + 1)}) {
      xs.insert(xs.end(),
                {x, std::nextafter(x, -inf), std::nextafter(x, inf)});
    }
    for (const double f : {0.2, 0.5, 0.7}) xs.push_back(grid.ColumnX(c) + f * w);
    for (const double y : {grid.RowY(r), grid.RowY(r + 1), grid.RowCenterY(r)}) {
      ys.insert(ys.end(),
                {y, std::nextafter(y, -inf), std::nextafter(y, inf)});
    }
    for (const double f : {0.2, 0.7}) ys.push_back(grid.RowY(r) + f * h);
  }
};

/// Fixtures on the shortcut's edges, on a grid whose lines are not exact
/// binary fractions and on one whose lines are.
void CheckFixtures(const RasterGrid& grid) {
  Differential differential(&grid);
  const uint32_t n = grid.CellsPerSide();
  const double w = grid.CellWidth();
  const double h = grid.CellHeight();
  const auto label = [](const char* what, uint32_t c, uint32_t r) {
    return std::string(what) + " in cell (" + std::to_string(c) + ", " +
           std::to_string(r) + ")";
  };
  for (uint32_t r = 0; r < n; ++r) {
    for (uint32_t c = 0; c < n; ++c) {
      const double x0 = grid.ColumnX(c);
      const double y0 = grid.RowY(r);
      const double x1 = grid.ColumnX(c + 1);
      const double y1 = grid.RowY(r + 1);
      const double ym = grid.RowCenterY(r);
      // One vertex on the cell's left column line, the others inside.
      differential.Check(Polygon(Ring({Point{x0, y0 + 0.4 * h},
                                       Point{x0 + 0.6 * w, y0 + 0.2 * h},
                                       Point{x0 + 0.7 * w, y0 + 0.8 * h}})),
                         label("vertex on a column line", c, r));
      // One vertex on the cell's bottom row line, the others inside.
      differential.Check(Polygon(Ring({Point{x0 + 0.4 * w, y0},
                                       Point{x0 + 0.8 * w, y0 + 0.6 * h},
                                       Point{x0 + 0.2 * w, y0 + 0.7 * h}})),
                         label("vertex on a row line", c, r));
      // Vertices on the row's centre line: edges that end on it and one
      // horizontal edge along it.
      differential.Check(Polygon(Ring({Point{x0 + 0.2 * w, ym},
                                       Point{x0 + 0.8 * w, ym},
                                       Point{x0 + 0.5 * w, y0 + 0.9 * h}})),
                         label("edge on a centre line", c, r));
      differential.Check(Polygon(Ring({Point{x0 + 0.3 * w, y0 + 0.1 * h},
                                       Point{x0 + 0.6 * w, ym},
                                       Point{x0 + 0.3 * w, y0 + 0.9 * h}})),
                         label("vertex on a centre line", c, r));
      // Horizontal and vertical edges inside the cell.
      differential.Check(
          Polygon(Ring({Point{x0 + 0.2 * w, y0 + 0.3 * h},
                        Point{x0 + 0.7 * w, y0 + 0.3 * h},
                        Point{x0 + 0.7 * w, y0 + 0.8 * h},
                        Point{x0 + 0.2 * w, y0 + 0.8 * h}})),
          label("rectangle inside", c, r));
      // The cell's own outline, every edge on a grid line.
      differential.Check(Polygon(Ring({Point{x0, y0}, Point{x1, y0},
                                       Point{x1, y1}, Point{x0, y1}})),
                         label("cell outline", c, r));
      // An edge inside one row that spans two columns.
      if (c + 1 < n) {
        differential.Check(
            Polygon(Ring({Point{x0 + 0.5 * w, y0 + 0.2 * h},
                          Point{x1 + 0.5 * w, y0 + 0.4 * h},
                          Point{x0 + 0.7 * w, y0 + 0.9 * h}})),
            label("edge across a column line", c, r));
      }
      // Repeated vertices: zero-length edges inside the cell and on its
      // corner.
      differential.Check(
          Polygon(Ring({Point{x0 + 0.2 * w, y0 + 0.2 * h},
                        Point{x0 + 0.2 * w, y0 + 0.2 * h},
                        Point{x0 + 0.8 * w, y0 + 0.3 * h},
                        Point{x0 + 0.8 * w, y0 + 0.3 * h},
                        Point{x0, y0}, Point{x0, y0},
                        Point{x0 + 0.5 * w, y0 + 0.9 * h}})),
          label("repeated vertices", c, r));
    }
  }

  // Random rings over the special coordinates of a few cells, with
  // repeated vertices, in columns and rows 0 and the last ones included.
  Rng rng(0x5EED + grid.Order());
  for (int trial = 0; trial < 3000; ++trial) {
    const auto c = static_cast<uint32_t>(
        trial % 4 == 0 ? 0 : rng.UniformInt(0, n - 1));
    const auto r = static_cast<uint32_t>(
        trial % 4 == 1 ? 0 : rng.UniformInt(0, n - 1));
    const SpecialCoordinates here(grid, c, r);
    const SpecialCoordinates right(grid, std::min(c + 1, n - 1), r);
    const SpecialCoordinates up(grid, c, std::min(r + 1, n - 1));
    std::vector<Point> vertices;
    const auto count = rng.UniformInt(3, 7);
    for (int64_t k = 0; k < count; ++k) {
      if (!vertices.empty() && rng.NextBounded(5) == 0) {
        vertices.push_back(vertices.back());
        continue;
      }
      const std::vector<double>& xs =
          rng.NextBounded(4) == 0 ? right.xs : here.xs;
      const std::vector<double>& ys = rng.NextBounded(4) == 0 ? up.ys : here.ys;
      vertices.push_back(Point{xs[rng.NextBounded(xs.size())],
                               ys[rng.NextBounded(ys.size())]});
    }
    differential.Check(Polygon(Ring(std::move(vertices))),
                       label("random special ring", c, r));
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(differential.compared(), 10 * differential.outside_window());

  // Partly off the grid: coordinates are clamped to the first and last
  // columns and rows, including edges wholly beside, below or above it.
  const Box& space = grid.Dataspace();
  const double span_x = space.Width();
  const double span_y = space.Height();
  const double left = space.min.x - 0.3 * span_x;
  const double right = space.max.x + 0.3 * span_x;
  const double below = space.min.y - 0.3 * span_y;
  const double above = space.max.y + 0.3 * span_y;
  const double mid_x = space.min.x + 0.5 * span_x;
  const double mid_y = space.min.y + 0.5 * span_y;
  differential.Check(Polygon(Ring({Point{left, below}, Point{mid_x, below},
                                   Point{mid_x, mid_y}, Point{left, mid_y}})),
                     "off the grid below and to the left");
  differential.Check(Polygon(Ring({Point{mid_x, mid_y}, Point{right, mid_y},
                                   Point{right, above}, Point{mid_x, above}})),
                     "off the grid above and to the right");
  differential.Check(
      Polygon(Ring({Point{left, above}, Point{left + 0.1 * span_x, above},
                    Point{right, above + 0.1 * span_y},
                    Point{mid_x, mid_y}})),
      "edges wholly above the grid");
  differential.Check(
      Polygon(Ring({Point{right, below}, Point{right - 0.1 * span_x, below},
                    Point{left, below - 0.1 * span_y},
                    Point{mid_x, mid_y}})),
      "edges wholly below the grid");
  differential.Check(
      Polygon(Ring({Point{left, mid_y}, Point{left - 0.1 * span_x, below},
                    Point{mid_x, mid_y + 0.01 * span_y}})),
      "edges wholly left of the grid");
  differential.Check(
      Polygon(Ring({Point{right, mid_y}, Point{right + 0.1 * span_x, above},
                    Point{mid_x, mid_y - 0.01 * span_y}})),
      "edges wholly right of the grid");
  // A hole whose edges sit on the shortcut's cases too.
  differential.Check(
      Polygon(Ring({Point{grid.ColumnX(0), grid.RowY(0)},
                    Point{grid.ColumnX(n), grid.RowY(0)},
                    Point{grid.ColumnX(n), grid.RowY(n)},
                    Point{grid.ColumnX(0), grid.RowY(n)}}),
              {Ring({Point{grid.ColumnX(n / 2), grid.RowCenterY(n / 2)},
                     Point{grid.ColumnX(n / 2) + 0.5 * w, grid.RowY(n / 2)},
                     Point{grid.ColumnX(n / 2) + 0.5 * w,
                           grid.RowCenterY(n / 2)}})}),
      "whole grid with a hole");
}

TEST(RasterizerDifferential, FixturesOnTheShortcutsEdges) {
  // Lines that are not binary fractions (the dataspace is inflated by a
  // hair), and a dataspace off the origin.
  CheckFixtures(RasterGrid(Box::Of(Point{0, 0}, Point{16, 16}), 4));
  CheckFixtures(RasterGrid(Box::Of(Point{0.1, -3.3}, Point{0.7, 5.9}), 3));
  // Orders 1 and 2, whose windows are smaller than the rows they clamp.
  CheckFixtures(RasterGrid(Box::Of(Point{-1, -1}, Point{1, 1}), 1));
  CheckFixtures(RasterGrid(Box::Of(Point{-5, 2}, Point{3, 9}), 2));
}

TEST(RasterizerDifferential, LowestVertexAnUlpBelowARowLineStaysInTheWindow) {
  // CellY rounds a y one ulp below some row lines up into the row above
  // them. A polygon whose lowest vertex is such a y, with another edge
  // starting exactly on the line, made the edge loop mark the row below
  // its window; the vertex walk keeps every mark inside it.
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{16, 16}), 4);
  const double inf = std::numeric_limits<double>::infinity();
  const double w = grid.CellWidth();
  const double h = grid.CellHeight();
  size_t rows_checked = 0;
  for (uint32_t r = 1; r < grid.CellsPerSide(); ++r) {
    const double below = std::nextafter(grid.RowY(r), -inf);
    if (grid.CellY(below) != r || grid.CellY(grid.RowY(r)) != r) continue;
    const double x0 = grid.ColumnX(3);
    const Polygon poly(Ring({Point{x0 + 0.2 * w, below},
                             Point{x0 + 0.9 * w, grid.RowY(r)},
                             Point{x0 + 0.5 * w, grid.RowY(r) + 0.6 * h}}));
    ASSERT_TRUE(EdgeLoopLeavesItsWindow(grid, poly)) << "row " << r;
    Differential differential(&grid);
    differential.Check(poly, "row " + std::to_string(r));
    EXPECT_EQ(differential.outside_window(), 1u);
    ++rows_checked;
  }
  EXPECT_GT(rows_checked, 0u);
}

}  // namespace
}  // namespace stj
