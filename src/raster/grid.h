#pragma once

#include <cstdint>

#include "src/geometry/box.h"
#include "src/geometry/point.h"
#include "src/interval/interval_list.h"
#include "src/raster/hilbert.h"

namespace stj {

/// Largest supported grid order: 2^16 x 2^16 cells, the paper's grid
/// (DESIGN.md §2).
constexpr uint32_t kMaxGridOrder = 16;

/// A fine uniform grid over a data space, with cells enumerated by the
/// Hilbert curve — the global grid both objects of a scenario are rastered
/// onto (the paper uses one independent 2^16 x 2^16 grid per scenario).
class RasterGrid {
 public:
  /// Covers \p dataspace with 2^order x 2^order cells, 1 <= order <=
  /// kMaxGridOrder (checked). The dataspace is inflated by a hair so that
  /// objects on the boundary fall strictly inside.
  RasterGrid(const Box& dataspace, uint32_t order);

  uint32_t Order() const { return order_; }
  uint32_t CellsPerSide() const { return cells_per_side_; }
  const Box& Dataspace() const { return dataspace_; }

  double CellWidth() const { return cell_w_; }
  double CellHeight() const { return cell_h_; }

  // The lookups below are inline: the rasterizer's edge loop calls them
  // for every row an edge spans.

  /// Column of the cell containing x (clamped to the grid).
  uint32_t CellX(double x) const {
    return ClampToCell((x - dataspace_.min.x) * inv_cell_w_);
  }

  /// Row of the cell containing y (clamped to the grid).
  uint32_t CellY(double y) const {
    return ClampToCell((y - dataspace_.min.y) * inv_cell_h_);
  }

  /// The world-space rectangle of cell (cx, cy).
  Box CellBox(uint32_t cx, uint32_t cy) const;

  /// World x-coordinate of the left edge of column cx.
  double ColumnX(uint32_t cx) const {
    return dataspace_.min.x + static_cast<double>(cx) * cell_w_;
  }

  /// World y-coordinate of the bottom edge of row cy.
  double RowY(uint32_t cy) const {
    return dataspace_.min.y + static_cast<double>(cy) * cell_h_;
  }

  /// World y-coordinate of the center line of row cy.
  double RowCenterY(uint32_t cy) const {
    return dataspace_.min.y + (static_cast<double>(cy) + 0.5) * cell_h_;
  }

  /// Hilbert id of cell (cx, cy).
  CellId CellIdOf(uint32_t cx, uint32_t cy) const {
    return HilbertXYToD(order_, cx, cy);
  }

 private:
  /// Index of the cell at grid coordinate \p t (in cells), clamped to
  /// [0, cells - 1] in double before the cast: a coordinate far off the
  /// grid, or NaN, never reaches a float-to-integer conversion it would
  /// overflow.
  uint32_t ClampToCell(double t) const {
    if (!(t > 0.0)) return 0;
    if (t >= static_cast<double>(cells_per_side_)) return cells_per_side_ - 1;
    return static_cast<uint32_t>(t);
  }

  Box dataspace_;
  uint32_t order_;
  uint32_t cells_per_side_;
  double cell_w_;
  double cell_h_;
  double inv_cell_w_;
  double inv_cell_h_;
};

}  // namespace stj
