#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/geometry/box.h"
#include "src/geometry/edge_slab_index.h"
#include "src/geometry/locator.h"
#include "src/geometry/point.h"
#include "src/geometry/polygon.h"
#include "src/geometry/segment.h"

namespace stj {

/// A polygon with the per-object indexes DE-9IM refinement can use, so
/// that an object refined against many partners pays their build once:
///
///  - the PolygonLocator slab index (sub-edge midpoint classification),
///  - the flattened edge array and an EdgeSlabIndex over it (boundary
///    intersection discovery),
///  - the memoized PointOnSurface representative point (the interior/
///    interior containment fallback).
///
/// A PreparedPolygon starts bare: the relate engine scans a bare side's
/// edges instead of querying an index, with the same exact answers. Warm()
/// builds the indexes. A bare side builds them itself once it has been
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

  /// True once Warm() has built the locator, edge array and edge index.
  bool Indexed() const { return index_ != nullptr; }

  /// The point-location slab index. Requires Indexed().
  const PolygonLocator& Locator() const;

  /// All edges, flattened in ForEachEdge order: outer ring, then holes.
  /// Requires Indexed().
  const std::vector<Segment>& Edges() const;

  /// The y-slab intersection-discovery index over Edges(), slabbed over the
  /// polygon's own bounds. Requires Indexed().
  const EdgeSlabIndex& EdgeIndex() const;

  /// The memoized PointOnSurface representative interior point, or nullptr
  /// for degenerate polygons. Computed at most once per object.
  const Point* InteriorPoint() const;

  /// Builds the locator, edge array and edge index (once; later calls do
  /// nothing) and records how long that took (BuildSeconds).
  void Warm() const;

  /// Wall seconds Warm() took; 0 while bare. The Pipeline sums it into
  /// prepared_build_seconds.
  double BuildSeconds() const { return build_seconds_; }

  /// Scans after which a bare polygon builds its indexes. A build costs
  /// as much as 50 to 57 crossing-count passes over the same polygon at
  /// 256 to 16,384 vertices, and 23 to 33 at 16 to 64 vertices, where both
  /// are cheap (BM_PreparedBuildOnly against BM_LocateUnindexed in
  /// bench/bench_micro_relate.cpp). So a large object is indexed once
  /// scanning it has cost about one build: the rent-or-buy rule, about
  /// twice the work of the better choice made in hindsight.
  static constexpr uint32_t kIndexAfterScans = 64;

  /// Passes over this polygon's edges while it was bare — the scans it was
  /// constructed with, plus one per window scan and one per point located
  /// by crossing count — up to kIndexAfterScans.
  uint32_t Scans() const { return scans_; }

  /// Counts one pass over the bare polygon's edges. The count that reaches
  /// kIndexAfterScans calls Warm() instead, so a caller checks Indexed()
  /// after counting and then uses the indexes rather than scanning.
  void CountScan() const;

  /// Deterministic accounting estimate of the fully-warmed memory footprint
  /// (edge array + locator slabs + edge index + fixed overhead), used by the
  /// prepared cache's byte budget. Independent of which components are
  /// currently materialised.
  static size_t EstimateBytes(const Polygon& poly);

 private:
  const Polygon* poly_ = nullptr;
  mutable std::unique_ptr<PolygonLocator> locator_;
  mutable std::unique_ptr<EdgeSlabIndex> index_;
  mutable std::vector<Segment> edges_;
  mutable uint32_t scans_ = 0;
  mutable double build_seconds_ = 0.0;
  mutable bool interior_computed_ = false;
  mutable std::optional<Point> interior_;
};

}  // namespace stj
