#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/geometry/polygon.h"
#include "src/interval/interval_list.h"
#include "src/raster/grid.h"
#include "src/raster/rasterizer.h"

namespace stj {

/// The APRIL approximation of one object: two sorted interval lists over
/// Hilbert cell ids (Georgiadis et al., VLDB J. 34(1), 2025).
///
/// The Conservative list C covers every cell the object touches (a superset
/// of the object); the Progressive list P covers only cells entirely inside
/// the object (a subset). P ⊆ C always. Everything the intermediate filters
/// of this paper conclude follows from these two set inequalities:
///   object_r ⊆ cells(C_r),  cells(P_r) ⊆ object_r  (same for s).
struct AprilApproximation {
  IntervalList conservative;  ///< C list.
  IntervalList progressive;   ///< P list.

  /// False when the record is known to be unusable (a shard record that
  /// fails its record sum is treated the same way). The pipeline must then
  /// treat the pair as undetermined and fall back to refinement rather than
  /// filter on garbage intervals. Note an *empty* conservative list with
  /// usable=true is legitimate (the object covers no cell at this grid
  /// resolution is impossible, but slivers can have empty P lists).
  bool usable = true;

  /// In-memory footprint of both lists in bytes (Table 2 reporting).
  size_t ByteSize() const {
    return conservative.ByteSize() + progressive.ByteSize();
  }

  /// Aborts (STJ_CHECK) unless both lists are canonical and P ⊆ C — the two
  /// inequalities every filter conclusion rests on. Always compiled; invoked
  /// automatically from AprilBuilder::Build under STJ_IF_INVARIANTS.
  void ValidateInvariants() const;
};

/// Non-owning view of one object's APRIL approximation. This is the type the
/// intermediate filters consume: it is satisfied equally by a heap-backed
/// AprilApproximation (implicit conversion below) and by one record of the
/// arena-backed AprilStore (april_store.h), so the topology layer is
/// storage-agnostic. A view never carries the `usable` flag — callers decide
/// usability *before* constructing a view (Pipeline::AprilFor).
struct AprilView {
  IntervalView conservative;  ///< C list.
  IntervalView progressive;   ///< P list.

  AprilView() = default;
  AprilView(IntervalView c, IntervalView p) : conservative(c), progressive(p) {}
  AprilView(const AprilApproximation& a)  // NOLINT: implicit by design
      : conservative(a.conservative), progressive(a.progressive) {}
};

/// Builds APRIL approximations of polygons on a fixed scenario grid.
///
/// One construction path turns a coverage into P and C lists without ever
/// materialising per-cell ids: a quadrant recursion over the Hilbert curve
/// (FromCoverageQuadrants). Every grid-aligned quadrant is one contiguous
/// curve segment, so a fully covered quadrant emits ONE interval and an
/// empty one is skipped; only mixed quadrants split. Each quadrant carries
/// its curve frame down the recursion, so children are visited in curve
/// order and the stream comes out sorted with no merge and no per-cell
/// index arithmetic. The cost is output-sensitive: a blob interior of
/// millions of cells collapses to the O(perimeter · order) quadrants of its
/// quadtree.
///
/// The per-cell construction (FromCoverage) enumerates every cell id and
/// sorts; it is the differential-test oracle. Both emit the canonical
/// interval form (sorted, disjoint, non-adjacent), and canonical forms of
/// equal cell sets are equal — which is why they agree byte-for-byte.
///
/// Build() is const but reuses per-instance scratch buffers, so one builder
/// is NOT safe to use from multiple threads; the parallel preprocessing
/// driver (BuildAprilApproximations) gives each worker its own builder.
class AprilBuilder {
 public:
  explicit AprilBuilder(const RasterGrid* grid)
      : grid_(grid), rasterizer_(grid) {}

  /// Rasterises \p poly and assembles its P and C interval lists.
  AprilApproximation Build(const Polygon& poly) const;

  /// Per-cell oracle: materialises every covered cell id and sorts (for
  /// differential tests).
  AprilApproximation FromCoverage(const RasterCoverage& coverage) const;

  /// The production construction Build() uses: decomposes the coverage into
  /// maximal curve-aligned quadrants, emitted in curve order. Each row of
  /// \p coverage holds sorted partial columns and sorted full runs that
  /// share no column, as the rasterizer produces.
  AprilApproximation FromCoverageQuadrants(
      const RasterCoverage& coverage) const;

 private:
  /// One row's covered column ranges [first, last], sorted, non-adjacent.
  using RowRuns = std::vector<std::pair<uint32_t, uint32_t>>;

  /// Quadrant decomposition of the region described by num_rows row-range
  /// vectors starting at grid row y0.
  IntervalList DecomposeQuadrants(const RowRuns* rows, size_t num_rows,
                                  uint32_t y0) const;

  const RasterGrid* grid_;

  // Per-instance scratch, reused across Build() calls (hence mutable on a
  // const method). See class comment for the threading contract.
  mutable Rasterizer rasterizer_;
  mutable RasterCoverage coverage_;
  mutable std::vector<CellInterval> stream_;  ///< Emitted intervals.
  mutable std::vector<RowRuns> c_rows_;       ///< Merged C rows.
};

}  // namespace stj
