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

Box RasterGrid::CellBox(uint32_t cx, uint32_t cy) const {
  Box box;
  box.min = Point{ColumnX(cx), RowY(cy)};
  box.max = Point{ColumnX(cx + 1), RowY(cy + 1)};
  return box;
}

}  // namespace stj
