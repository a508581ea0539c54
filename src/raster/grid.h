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

  /// Column of the cell containing x (clamped to the grid).
  uint32_t CellX(double x) const;

  /// Row of the cell containing y (clamped to the grid).
  uint32_t CellY(double y) const;

  /// The world-space rectangle of cell (cx, cy).
  Box CellBox(uint32_t cx, uint32_t cy) const;

  /// World x-coordinate of the left edge of column cx.
  double ColumnX(uint32_t cx) const;

  /// World y-coordinate of the bottom edge of row cy.
  double RowY(uint32_t cy) const;

  /// World y-coordinate of the center line of row cy.
  double RowCenterY(uint32_t cy) const;

  /// Hilbert id of cell (cx, cy).
  CellId CellIdOf(uint32_t cx, uint32_t cy) const {
    return HilbertXYToD(order_, cx, cy);
  }

 private:
  Box dataspace_;
  uint32_t order_;
  uint32_t cells_per_side_;
  double cell_w_;
  double cell_h_;
  double inv_cell_w_;
  double inv_cell_h_;
};

}  // namespace stj
