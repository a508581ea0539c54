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
  // The window spans every ring: a hole that leaves its shell (an invalid
  // polygon that a strict load still accepts) marks rows outside the
  // shell's bounds.
  Box bounds = poly.Bounds();
  for (const Ring& hole : poly.Holes()) bounds.Expand(hole.Bounds());

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

  const RasterGrid& grid = *grid_;

  // Marks columns [cx_lo, cx_hi] of grid row `row`. Consecutive short edges
  // often end in the cell the previous one marked; the row is sorted and
  // de-duplicated below, so skipping that repeat changes nothing but the
  // push.
  const auto mark = [&](uint32_t row, uint32_t cx_lo, uint32_t cx_hi) {
    auto& row_cells = out->partial_by_row[row - wy0];
    if (cx_lo == cx_hi && !row_cells.empty() && row_cells.back() == cx_lo) {
      return;
    }
    for (uint32_t cx = cx_lo; cx <= cx_hi; ++cx) row_cells.push_back(cx);
  };
  // Marks the cells of x-extent [seg_xlo, seg_xhi] in row `row`, widened
  // left when the extent starts exactly on a column line.
  const auto mark_extent = [&](uint32_t row, double seg_xlo, double seg_xhi) {
    uint32_t cx_lo = grid.CellX(seg_xlo);
    const uint32_t cx_hi = grid.CellX(seg_xhi);
    if (cx_lo > 0 && seg_xlo == grid.ColumnX(cx_lo)) --cx_lo;
    mark(row, cx_lo, cx_hi);
  };

  // One edge from a, in cell (acx, acy), to b, in cell (bcx, bcy). The
  // vertex walk below computes each vertex's cell once; CellX and CellY
  // are monotone, so an edge's lowest and highest rows are its endpoints'.
  const auto edge = [&](const Point& a, const Point& b, uint32_t acx,
                        uint32_t acy, uint32_t bcx, uint32_t bcy) {
    const double ylo = std::min(a.y, b.y);
    const double yhi = std::max(a.y, b.y);
    const double xlo = std::min(a.x, b.x);
    const double xhi = std::max(a.x, b.x);
    const double dx = b.x - a.x;
    const double dy = b.y - a.y;

    if (acy == bcy && grid.RowY(acy) < ylo && yhi <= grid.RowY(acy + 1)) {
      // The edge lies in the open slab of row r = acy, so the general loop
      // below would visit row r alone, with the edge's own y-range as its
      // band: t is exactly 0 at one end and exactly 1 (dy / dy) at the
      // other, and the x-extent is {a.x, a.x + dx} clamped to [xlo, xhi].
      const uint32_t row = acy;
      if (acx == bcx &&
          (acx == 0 || grid.ColumnX(acx) < xlo || xhi < grid.ColumnX(acx))) {
        // Both ends in cell (acx, r) and no left widening: CellX is
        // monotone, so every point of that extent is in column acx.
        mark(row, acx, acx);
      } else if (dy != 0.0) {
        const double x_end = a.x + dx;
        mark_extent(row, std::max(xlo, std::min(a.x, x_end)),
                    std::min(xhi, std::max(a.x, x_end)));
      } else {
        mark_extent(row, xlo, xhi);
      }
      // Row r's centre line, under the half-open rule below.
      const double yc = grid.RowCenterY(row);
      if (ylo <= yc && yc < yhi) {
        (*crossings)[row - wy0].push_back(a.x + dx * ((yc - a.y) / dy));
      }
      return;
    }

    uint32_t row_lo = std::min(acy, bcy);
    const uint32_t row_hi = std::max(acy, bcy);
    // An edge starting exactly on its lowest row's bottom line marks the
    // row below too, unless that row is below the window: CellY can round
    // the polygon's lowest vertex up into row_lo although the vertex lies
    // an ulp below RowY(row_lo), and then the window starts at row_lo.
    if (row_lo > wy0 && ylo == grid.RowY(row_lo)) --row_lo;

    // Mark boundary cells row by row.
    for (uint32_t row = row_lo; row <= row_hi; ++row) {
      double seg_xlo = xlo;
      double seg_xhi = xhi;
      if (dy != 0.0) {
        // X-extent of the edge within this row's y-slab.
        const double band_lo = std::max(ylo, grid.RowY(row));
        const double band_hi = std::min(yhi, grid.RowY(row + 1));
        const double x_at_lo = a.x + dx * ((band_lo - a.y) / dy);
        const double x_at_hi = a.x + dx * ((band_hi - a.y) / dy);
        seg_xlo = std::max(xlo, std::min(x_at_lo, x_at_hi));
        seg_xhi = std::min(xhi, std::max(x_at_lo, x_at_hi));
      }
      mark_extent(row, seg_xlo, seg_xhi);
    }

    // Record centre-line crossings (rows whose centre y is crossed by the
    // edge under the half-open rule a.y <= yc < b.y).
    if (dy != 0.0) {
      // Centre of row cy is RowY(cy) + h/2; find rows with
      // ylo <= centre < yhi.
      uint32_t first = std::min(acy, bcy);
      if (grid.RowCenterY(first) < ylo) ++first;
      uint32_t last = row_hi;
      if (last >= grid.CellsPerSide() || grid.RowCenterY(last) >= yhi) {
        if (last == 0) return;  // edge entirely below the first centre line
        --last;
      }
      for (uint32_t row = first; row <= last && row <= wy1; ++row) {
        if (row < wy0) continue;
        const double yc = grid.RowCenterY(row);
        const double x = a.x + dx * ((yc - a.y) / dy);
        (*crossings)[row - wy0].push_back(x);
      }
    }
  };

  // Walk each ring's vertices; edge i runs from vertex i to vertex i + 1
  // (mod n), as Polygon::ForEachEdge orders them.
  const auto walk = [&](const Ring& ring) {
    const std::vector<Point>& v = ring.Vertices();
    if (v.empty()) return;
    const uint32_t cx0 = grid.CellX(v[0].x);
    const uint32_t cy0 = grid.CellY(v[0].y);
    uint32_t acx = cx0;
    uint32_t acy = cy0;
    for (size_t i = 0; i + 1 < v.size(); ++i) {
      const uint32_t bcx = grid.CellX(v[i + 1].x);
      const uint32_t bcy = grid.CellY(v[i + 1].y);
      edge(v[i], v[i + 1], acx, acy, bcx, bcy);
      acx = bcx;
      acy = bcy;
    }
    edge(v.back(), v[0], acx, acy, cx0, cy0);
  };
  walk(poly.Outer());
  for (const Ring& hole : poly.Holes()) walk(hole);

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
