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

  /// False when the record is known to be unusable (the APRIL loaders in
  /// april_io.h flag checksum or codec failures the same way). The pipeline must
  /// then treat the pair as undetermined and fall back to refinement rather
  /// than filter on garbage intervals. Note an *empty* conservative list with
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
/// Two construction paths produce byte-identical results:
///  - the run-based path (default) never materialises per-cell ids. Small
///    coverages convert each row-run of cells [cx_lo, cx_hi] × row directly
///    into sorted Hilbert intervals (AppendHilbertRunIntervals) and merge
///    the per-run streams pairwise; large coverages switch to a 2-D quadrant
///    block decomposition that emits one interval per maximal fully-covered
///    quadrant, visiting quadrants in curve order so the stream comes out
///    sorted with no merge at all. The block path is what makes the cost
///    output-sensitive — a blob interior of millions of cells collapses to
///    the O(perimeter · order) quadrants of its quadtree, where the per-run
///    path would still emit Θ(cells) raw intervals (a row-run of length L
///    fragments into ~L/2 curve intervals before vertical coalescing);
///  - the per-cell path (per_cell_oracle=true) enumerates every cell id and
///    sorts, and is kept as the differential-test oracle.
/// All paths emit the canonical interval form (sorted, disjoint,
/// non-adjacent), and canonical forms of equal cell sets are equal — which
/// is why they agree byte-for-byte.
///
/// Build() is const but reuses per-instance scratch buffers, so one builder
/// is NOT safe to use from multiple threads; the parallel preprocessing
/// driver (BuildAprilApproximations) gives each worker its own builder.
class AprilBuilder {
 public:
  explicit AprilBuilder(const RasterGrid* grid, bool per_cell_oracle = false)
      : grid_(grid), per_cell_oracle_(per_cell_oracle), rasterizer_(grid) {}

  /// Rasterises \p poly and assembles its P and C interval lists.
  AprilApproximation Build(const Polygon& poly) const;

  /// Per-cell oracle: materialises every covered cell id and sorts (exposed
  /// for differential tests; selected by per_cell_oracle=true in Build).
  AprilApproximation FromCoverage(const RasterCoverage& coverage) const;

  /// Run-based path: decomposes row-runs (small coverages) or quadrant
  /// blocks (large coverages) into Hilbert intervals without ever
  /// materialising per-cell ids (exposed for differential tests).
  AprilApproximation FromCoverageRuns(const RasterCoverage& coverage) const;

 private:
  /// One row's covered column ranges [first, last], sorted, non-adjacent.
  using RowRuns = std::vector<std::pair<uint32_t, uint32_t>>;

  /// Merges the sorted per-run segments of stream_ (delimited by bounds_)
  /// into one canonical interval vector. Bottom-up pairwise passes with
  /// ping-pong buffers: O(M log S) for M intervals in S segments.
  IntervalList MergeStreams() const;

  /// Block path for large coverages: recursive quadrant decomposition of the
  /// region described by num_rows row-range vectors starting at grid row y0.
  IntervalList DecomposeBlocks(const RowRuns* rows, size_t num_rows,
                               uint32_t y0) const;

  /// Per-run + pairwise-merge construction (small coverages).
  AprilApproximation FromCoverageRowRuns(const RasterCoverage& coverage) const;

  /// Quadrant-block construction (large coverages).
  AprilApproximation FromCoverageBlocks(const RasterCoverage& coverage) const;

  const RasterGrid* grid_;
  bool per_cell_oracle_;

  // Per-instance scratch, reused across Build() calls (hence mutable on a
  // const method). See class comment for the threading contract.
  mutable Rasterizer rasterizer_;
  mutable RasterCoverage coverage_;
  mutable std::vector<CellInterval> stream_;         ///< Concatenated segments.
  mutable std::vector<CellInterval> merge_scratch_;  ///< Ping-pong buffer.
  mutable std::vector<size_t> bounds_;               ///< Segment boundaries.
  mutable std::vector<size_t> bounds_scratch_;       ///< Ping-pong boundaries.
  mutable RowRuns ranges_;                           ///< C row scan.
  mutable std::vector<RowRuns> c_rows_;  ///< Merged C rows (block path).
};

}  // namespace stj
