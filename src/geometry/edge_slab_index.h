#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/geometry/box.h"
#include "src/geometry/point.h"
#include "src/geometry/point_in_polygon.h"
#include "src/geometry/polygon.h"
#include "src/geometry/segment.h"

namespace stj {

/// The per-object index of one polygon's boundary, built once and queried
/// by every relate the object takes part in: the polygon's edges, flattened
/// in ForEachEdge order (outer ring, then holes), bucketed by the
/// horizontal slabs of the polygon's bounds their y-span overlaps (about
/// four edges per slab). The slabs are one CSR layout — slab k holds the
/// edge ids ids_[offsets_[k], offsets_[k + 1]) in ascending order — built
/// by a count pass and a fill pass.
///
/// Two queries:
///  - Locate(p): exact point location — the crossing count of
///    LocateUnindexed (the same on-boundary test and half-open +x ray
///    rule) over the edges of p's slab only, which include every edge the
///    ray can cross and every edge p can lie on. About sqrt(n) edges for a
///    blob-like polygon, against n for the bare scan.
///  - Probe(ylo, yhi): the edges that may meet a y-range (intersection
///    discovery).
///
/// Immutable once built: the queries write nothing, so one index may be
/// queried from any number of threads at once.
class EdgeSlabIndex {
 public:
  /// Flattens and slabs the edges of \p poly, over the y-extent of its
  /// bounds. Keeps no reference to \p poly.
  explicit EdgeSlabIndex(const Polygon& poly);

  /// All edges, in ForEachEdge order; Probe reports positions in it.
  const std::vector<Segment>& Edges() const { return edges_; }

  /// Exact topological location of \p p relative to the polygon; equal to
  /// LocateUnindexed(poly, p) for every point.
  Location Locate(const Point& p) const;

  /// Invokes fn(edge_id) once for every edge that occupies a slab
  /// overlapping [ylo, yhi] — a superset of the edges whose y-span overlaps
  /// it. An edge spanning several probed slabs is reported in the first of
  /// them only.
  template <typename Fn>
  void Probe(double ylo, double yhi, Fn&& fn) const {
    const size_t lo = SlabOf(ylo);
    const size_t hi = SlabOf(yhi);
    for (uint32_t k = offsets_[lo]; k < offsets_[lo + 1]; ++k) fn(ids_[k]);
    for (size_t s = lo + 1; s <= hi; ++s) {
      for (uint32_t k = offsets_[s]; k < offsets_[s + 1]; ++k) {
        // An edge that starts below slab s is also in slab s - 1.
        if (FirstSlab(edges_[ids_[k]]) == s) fn(ids_[k]);
      }
    }
  }

 private:
  size_t SlabOf(double y) const;
  size_t FirstSlab(const Segment& e) const {
    return SlabOf(e.a.y < e.b.y ? e.a.y : e.b.y);
  }

  std::vector<Segment> edges_;
  Box bounds_;
  double inv_height_ = 0.0;
  size_t num_slabs_ = 1;
  std::vector<uint32_t> offsets_;  // num_slabs_ + 1 prefix sums into ids_
  std::vector<uint32_t> ids_;
};

/// Exact location of \p p against \p poly without an index: the crossing
/// count of EdgeSlabIndex::Locate taken over every edge whose y-span
/// contains p. O(n) per query and nothing to build.
Location LocateUnindexed(const Polygon& poly, const Point& p);

}  // namespace stj
