#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "src/geometry/box.h"
#include "src/geometry/edge_slab_index.h"
#include "src/geometry/point.h"
#include "src/geometry/polygon.h"

namespace stj {

/// A polygon with the per-object state DE-9IM refinement can reuse, so that
/// an object refined against many partners pays its build once:
///
///  - its EdgeSlabIndex (the flattened edges in one CSR slab layout), which
///    serves both sub-edge midpoint location and boundary intersection
///    discovery,
///  - the memoized PointOnSurface representative point (the interior/
///    interior containment fallback).
///
/// A PreparedPolygon starts bare: the relate engine scans a bare side's
/// edges instead of querying an index, with the same exact answers. Warm()
/// builds the index. A bare side builds it itself once it has been
/// scanned kIndexAfterScans times (CountScan), counting the scans its
/// object had in earlier pairs when the Pipeline passes them in; the
/// Pipeline also warms both sides of a pair of two large polygons. Every
/// component is a deterministic pure function of the polygon, so a relate
/// is byte-identical whichever sides are indexed, and whenever a side
/// becomes indexed.
///
/// Warm(), the scan count and the lazily memoized representative point
/// write mutable state, which is NOT thread-safe: a PreparedPolygon is
/// per-worker state (see the Pipeline prepared cache) and must not be
/// shared across threads.
///
/// The referenced Polygon must outlive the PreparedPolygon.
class PreparedPolygon {
 public:
  PreparedPolygon() = default;
  /// \p scans: passes already made over the object's edges while it was
  /// bare, in earlier pairs; they count towards kIndexAfterScans.
  explicit PreparedPolygon(const Polygon& poly, uint32_t scans = 0)
      : poly_(&poly), scans_(scans) {}

  PreparedPolygon(PreparedPolygon&&) = default;
  PreparedPolygon& operator=(PreparedPolygon&&) = default;
  PreparedPolygon(const PreparedPolygon&) = delete;
  PreparedPolygon& operator=(const PreparedPolygon&) = delete;

  const Polygon& Geometry() const { return *poly_; }
  const Box& Bounds() const { return poly_->Bounds(); }

  /// True once Warm() has built the edge index.
  bool Indexed() const { return index_ != nullptr; }

  /// The edge index: the flattened edges (outer ring, then holes), point
  /// location and y-range probes, slabbed over the polygon's own bounds.
  /// Requires Indexed().
  const EdgeSlabIndex& EdgeIndex() const;

  /// The memoized PointOnSurface representative interior point, or nullptr
  /// for degenerate polygons. Computed at most once per object.
  const Point* InteriorPoint() const;

  /// Builds the edge index (once; later calls do nothing) and records how
  /// long that took (BuildSeconds).
  void Warm() const;

  /// Wall seconds Warm() took; 0 while bare. The Pipeline sums it into
  /// prepared_build_seconds.
  double BuildSeconds() const { return build_seconds_; }

  /// Scans after which a bare polygon builds its index. A build now costs
  /// as much as 6 to 9 crossing-count passes over the same polygon at 16 to
  /// 16,384 vertices (BM_PreparedBuildOnly against BM_LocateUnindexed in
  /// bench/bench_micro_relate.cpp), so rent-or-buy alone would index at
  /// about the 8th scan. The threshold stays at 64 because an index pays
  /// only for an object that is met again: on obe-ope, indexing at the
  /// 12th scan built 1,875 indexes that served 825 hits (16 and 7 at 64)
  /// and took about 30% more refinement time for no wall-time gain, and
  /// tc-tz did not move beyond noise (EXPERIMENTS.md, "One slab index, one
  /// per-worker LRU").
  static constexpr uint32_t kIndexAfterScans = 64;

  /// Passes over this polygon's edges while it was bare — the scans it was
  /// constructed with, plus one per window scan and one per point located
  /// by crossing count — up to kIndexAfterScans.
  uint32_t Scans() const { return scans_; }

  /// Counts one pass over the bare polygon's edges. The count that reaches
  /// kIndexAfterScans calls Warm() instead, so a caller checks Indexed()
  /// after counting and then uses the index rather than scanning.
  void CountScan() const;

  /// Deterministic accounting estimate of the indexed memory footprint
  /// (the EdgeSlabIndex's edges, slab ids and offsets, and both objects),
  /// used by the prepared cache's byte budget. Independent of whether the
  /// index is built yet.
  static size_t EstimateBytes(const Polygon& poly);

 private:
  const Polygon* poly_ = nullptr;
  mutable std::unique_ptr<const EdgeSlabIndex> index_;
  mutable uint32_t scans_ = 0;
  mutable double build_seconds_ = 0.0;
  mutable bool interior_computed_ = false;
  mutable std::optional<Point> interior_;
};

}  // namespace stj
