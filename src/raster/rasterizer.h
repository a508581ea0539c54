#pragma once

#include <cstdint>
#include <vector>

#include "src/geometry/polygon.h"
#include "src/raster/grid.h"

namespace stj {

/// Cell-level raster coverage of one polygon, organised by grid row.
///
/// `partial` holds the columns of cells the polygon boundary passes through;
/// `full_runs` holds maximal column ranges [first, last] of cells lying
/// entirely inside the polygon. Rows are indexed relative to `y0`.
struct RasterCoverage {
  uint32_t y0 = 0;  ///< Bottom row of the raster window.
  std::vector<std::vector<uint32_t>> partial_by_row;  ///< Sorted columns.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> full_runs_by_row;

  uint64_t PartialCount() const;
  uint64_t FullCount() const;
};

/// Rasterises polygons onto a RasterGrid.
///
/// Boundary (partial) cells are found by walking each ring's vertices, each
/// vertex's cell computed once, and each edge through the rows it spans,
/// marking the contiguous column range the edge covers within each row — a
/// closed supercover, erring on the side of marking more cells, which
/// preserves the conservativeness of the C list. An edge inside one row's
/// open slab (most edges of fine polygons) skips the per-row loop with the
/// same result (DESIGN.md §9). Interior (full) cells
/// are found per row by a scanline parity fill over the gaps between partial
/// cells: the polygon boundary crosses a row's centre line only inside
/// partial cells, so each gap is uniformly interior or exterior and a single
/// parity lookup per gap decides it. Total cost is O(edges + marked cells +
/// crossings log crossings).
class Rasterizer {
 public:
  explicit Rasterizer(const RasterGrid* grid) : grid_(grid) {}

  /// Computes the polygon's partial cells and full-cell runs into a freshly
  /// allocated coverage. Thread-safe on a shared instance.
  RasterCoverage Rasterize(const Polygon& poly) const;

  /// Allocation-lean overload for tight preprocessing loops: clears and
  /// reuses *out's row vectors and this rasterizer's internal crossing
  /// buffers. NOT safe to call concurrently on one instance — the parallel
  /// APRIL builder gives each worker its own Rasterizer.
  void Rasterize(const Polygon& poly, RasterCoverage* out);

 private:
  void RasterizeInto(const Polygon& poly,
                     std::vector<std::vector<double>>* crossings,
                     RasterCoverage* out) const;

  const RasterGrid* grid_;
  std::vector<std::vector<double>> crossings_;  ///< Overload scratch.
};

}  // namespace stj
