#pragma once

#include <cstddef>

#include "src/de9im/matrix.h"
#include "src/de9im/relation.h"
#include "src/geometry/polygon.h"
#include "src/geometry/prepared_polygon.h"

namespace stj::de9im {

/// Above this many vertices on both sides, a pair is related through both
/// polygons' indexes: scanning one windowed boundary against the other
/// grows with the product of their sizes.
inline constexpr size_t kIndexBothAbove = 64;

/// Computes DE-9IM matrices for polygon pairs — the refinement step of the
/// topology-join pipeline (the paper delegates this to boost::geometry; we
/// implement it from scratch).
///
/// Method: let W = MBR(r) ∩ MBR(s). An edge whose MBR misses W lies outside
/// the other polygon's MBR, so it only records that its boundary meets the
/// other's exterior. The windowed edges are split at their mutual
/// intersections (ComputeArrangement), each resulting sub-edge midpoint is
/// located against the other polygon, and the nine matrix entries follow
/// from the classification flags; interior/interior and interior/exterior
/// entries that no boundary evidence decides fall back to locating a
/// representative interior point (PointOnSurface). Because a valid
/// polygon's interior is connected, the fallback is sound: if no boundary
/// piece of either polygon lies in the other's interior or exterior, each
/// interior is entirely inside, entirely outside, or equal to the other.
/// In particular, with no boundary piece of either polygon in the other's
/// interior, a common interior point forces I(r) = I(s) and so
/// MBR(r) = MBR(s): the I/I fallback computes a side's point only when
/// that side's MBR lies inside the other's. The I/E and E/I fallbacks
/// compute a side's point only when none of that side's boundary lies in
/// the other's interior or exterior; a piece in the other's interior
/// already places the whole interior there.
///
/// Back ends: each side is either indexed (PreparedPolygon::Warm) or bare.
/// An indexed side is probed and located through its edge slab index; a
/// bare side's windowed edges are tested directly and a point is located
/// against it by an exact crossing count over all its edges
/// (LocateUnindexed — the +x ray leaves W). A bare side counts those
/// passes and indexes itself at the PreparedPolygon::kIndexAfterScans-th,
/// midway through a pair if need be. The matrix is identical for every
/// combination and whenever a side becomes indexed.
///
/// Cost: with n_w, m_w windowed edges and k intersections, O(n + m) to
/// window both boundaries, plus discovery — O((n_w + k) * slab) against an
/// indexed side, O(n_w * m_w) between two bare ones — plus one locate per
/// windowed sub-edge midpoint: about sqrt(size) against an indexed side,
/// linear in its size against a bare one, for at most kIndexAfterScans
/// locates. Building a side's index costs O(size), about 6 to 9 scans; it
/// pays when the object is refined against several partners, when many
/// points are located against it, or when both sides are large.
class RelateEngine {
 public:
  /// Computes the DE-9IM matrix of (r, s): both sides bare, or both
  /// indexed when both have more than kIndexBothAbove vertices.
  static Matrix Relate(const Polygon& r, const Polygon& s);

  /// The engine body, each side indexed or bare as the caller prepared it.
  static Matrix Relate(const PreparedPolygon& r, const PreparedPolygon& s);

  /// True when a pair of these two polygons should be related through both
  /// indexes: both have more than kIndexBothAbove vertices.
  static bool IndexBoth(const Polygon& r, const Polygon& s) {
    return r.VertexCount() > kIndexBothAbove &&
           s.VertexCount() > kIndexBothAbove;
  }
};

/// Convenience: the DE-9IM matrix of (r, s).
Matrix RelateMatrix(const Polygon& r, const Polygon& s);

/// Convenience: the most specific of the eight relations for (r, s).
Relation FindRelationExact(const Polygon& r, const Polygon& s);

}  // namespace stj::de9im
