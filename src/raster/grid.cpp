#include "src/raster/grid.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace stj {

RasterGrid::RasterGrid(const Box& dataspace, uint32_t order)
    : dataspace_(dataspace.Inflated(
          1e-9 * std::max({dataspace.Width(), dataspace.Height(), 1.0}))),
      order_(order) {
  STJ_CHECK(1 <= order && order <= kMaxGridOrder);
  cells_per_side_ = 1u << order;
  cell_w_ = dataspace_.Width() / static_cast<double>(cells_per_side_);
  cell_h_ = dataspace_.Height() / static_cast<double>(cells_per_side_);
  inv_cell_w_ = 1.0 / cell_w_;
  inv_cell_h_ = 1.0 / cell_h_;
}

uint32_t RasterGrid::CellX(double x) const {
  const double t = (x - dataspace_.min.x) * inv_cell_w_;
  if (t <= 0.0) return 0;
  const uint32_t cx = static_cast<uint32_t>(t);
  return std::min(cx, cells_per_side_ - 1);
}

uint32_t RasterGrid::CellY(double y) const {
  const double t = (y - dataspace_.min.y) * inv_cell_h_;
  if (t <= 0.0) return 0;
  const uint32_t cy = static_cast<uint32_t>(t);
  return std::min(cy, cells_per_side_ - 1);
}

Box RasterGrid::CellBox(uint32_t cx, uint32_t cy) const {
  Box box;
  box.min = Point{ColumnX(cx), RowY(cy)};
  box.max = Point{ColumnX(cx + 1), RowY(cy + 1)};
  return box;
}

double RasterGrid::ColumnX(uint32_t cx) const {
  return dataspace_.min.x + static_cast<double>(cx) * cell_w_;
}

double RasterGrid::RowY(uint32_t cy) const {
  return dataspace_.min.y + static_cast<double>(cy) * cell_h_;
}

double RasterGrid::RowCenterY(uint32_t cy) const {
  return dataspace_.min.y + (static_cast<double>(cy) + 0.5) * cell_h_;
}

}  // namespace stj
