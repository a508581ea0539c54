#pragma once

#include <cstddef>
#include <vector>

#include "src/geometry/point.h"
#include "src/geometry/point_in_polygon.h"
#include "src/geometry/polygon.h"

namespace stj {

/// Accelerated exact point location against one polygon.
///
/// Buckets all ring edges into horizontal slabs; a query only inspects the
/// edges whose y-span overlaps the query point's slab, which is exactly the
/// superset of (a) edges the +x crossing ray can hit and (b) edges the point
/// could lie on. Queries stay exact (adaptive orientation predicate); the slab
/// structure only prunes. Typical query cost is O(sqrt(n)) for blob-like
/// polygons versus O(n) for the plain scan in point_in_polygon.h.
///
/// The DE-9IM relate engine builds one for a polygon that is reused across
/// candidate pairs (or large on both sides of a pair); other polygons are
/// located with LocateUnindexed below, which gives the same answer.
class PolygonLocator {
 public:
  /// Builds the slab index over all rings of \p poly. The polygon must
  /// outlive the locator.
  explicit PolygonLocator(const Polygon& poly);

  /// Exact topological location of \p p relative to the polygon.
  Location Locate(const Point& p) const;

  /// Convenience: Locate(p) == kInterior.
  bool ContainsInterior(const Point& p) const {
    return Locate(p) == Location::kInterior;
  }

 private:
  struct Edge {
    Point a;
    Point b;
  };

  size_t SlabIndex(double y) const;

  const Polygon* poly_;
  double y_lo_ = 0.0;
  double inv_slab_height_ = 0.0;
  size_t num_slabs_ = 1;
  std::vector<std::vector<Edge>> slabs_;
};

/// Exact location of \p p against \p poly without an index: the crossing
/// count of PolygonLocator::Locate (the same on-boundary test, the same
/// half-open +x ray rule, even-odd over all rings) taken over every edge
/// whose y-span contains p. Equal to PolygonLocator(poly).Locate(p) for
/// every point, at O(n) per query and nothing to build.
Location LocateUnindexed(const Polygon& poly, const Point& p);

}  // namespace stj
