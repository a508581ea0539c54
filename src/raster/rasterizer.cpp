#include "src/raster/rasterizer.h"

#include <algorithm>
#include <cmath>

namespace stj {

namespace {

/// Resizes a vector-of-vectors to \p n rows, clearing (but keeping the heap
/// buffers of) every row that survives the resize. This is what makes the
/// scratch-reusing Rasterize overload allocation-free in steady state.
template <typename Row>
void ResetRows(std::vector<Row>* rows, size_t n) {
  const size_t keep = std::min(rows->size(), n);
  rows->resize(n);
  for (size_t i = 0; i < keep; ++i) (*rows)[i].clear();
}

}  // namespace

uint64_t RasterCoverage::PartialCount() const {
  uint64_t total = 0;
  for (const auto& row : partial_by_row) total += row.size();
  return total;
}

uint64_t RasterCoverage::FullCount() const {
  uint64_t total = 0;
  for (const auto& row : full_runs_by_row) {
    for (const auto& [first, last] : row) total += last - first + 1;
  }
  return total;
}

RasterCoverage Rasterizer::Rasterize(const Polygon& poly) const {
  RasterCoverage out;
  std::vector<std::vector<double>> crossings;
  RasterizeInto(poly, &crossings, &out);
  return out;
}

void Rasterizer::Rasterize(const Polygon& poly, RasterCoverage* out) {
  RasterizeInto(poly, &crossings_, out);
}

void Rasterizer::RasterizeInto(const Polygon& poly,
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

}  // namespace stj
