#pragma once

#include <vector>

#include "src/geometry/point.h"
#include "src/geometry/polygon.h"

namespace stj {
class PreparedPolygon;
}

namespace stj::de9im {

/// One side's view of the mutual boundary arrangement of a polygon pair,
/// restricted to the window W = MBR(r) ∩ MBR(s).
struct ArrangementSide {
  /// Midpoints of this polygon's windowed boundary sub-edges (edges whose
  /// MBR meets W) after splitting at every intersection with the other
  /// polygon's boundary — excluding sub-edges that lie on collinear shared
  /// pieces (reported via has_shared_piece). In exact arithmetic each
  /// midpoint is strictly interior or strictly exterior to the other
  /// polygon, never on its boundary.
  std::vector<Point> midpoints;

  /// True when some positive-length piece of this boundary coincides with
  /// the other polygon's boundary (dimension-1 B/B intersection evidence).
  bool has_shared_piece = false;

  /// True when some edge of this boundary misses W. Such an edge lies
  /// outside the other polygon's MBR, so in its exterior: it is neither
  /// split nor given midpoints, and this flag alone records it.
  bool outside_window = false;
};

/// The arrangement of two polygon boundaries against each other: the raw
/// material for DE-9IM classification.
struct Arrangement {
  ArrangementSide r;
  ArrangementSide s;

  /// True when the two boundaries share at least one point.
  bool boundaries_touch = false;
};

/// Splits every windowed edge of \p r at its intersections with edges of
/// \p s and vice versa, using exact intersection classification. Only
/// windowed edges can meet the other boundary: an edge outside W lies
/// outside the other polygon's MBR. Windowing is not clipping — edges keep
/// their endpoints, so no artificial boundary pieces appear. Collinear
/// shared pieces are detected explicitly (never classified via rounded
/// midpoints), which keeps shared-boundary datasets (tessellations, equal
/// polygons) robust.
///
/// Intersection discovery probes a side's EdgeSlabIndex when that side is
/// indexed (PreparedPolygon::Indexed), and otherwise tests the windowed
/// edges of both sides against each other. The result is identical either
/// way: cuts are ordered by (parameter, point), not by discovery order.
Arrangement ComputeArrangement(const PreparedPolygon& r,
                               const PreparedPolygon& s);

/// As above for two bare polygons.
Arrangement ComputeArrangement(const Polygon& r, const Polygon& s);

}  // namespace stj::de9im
