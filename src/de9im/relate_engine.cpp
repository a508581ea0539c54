#include "src/de9im/relate_engine.h"

#include "src/de9im/boundary_arrangement.h"
#include "src/geometry/edge_slab_index.h"
#include "src/geometry/prepared_polygon.h"

namespace stj::de9im {

namespace {

// Classification summary of one polygon's boundary sub-edges against the
// other polygon.
struct SideFlags {
  bool in_interior = false;  // some sub-edge lies in the other's interior
  bool in_exterior = false;  // some sub-edge lies in the other's exterior
  bool on_boundary = false;  // some sub-edge lies on the other's boundary
};

// Locates p against one side through its edge index when the side is
// indexed, else by the exact crossing count over all its edges: a counted
// scan unless p is outside the side's MBR, and the count that reaches
// PreparedPolygon::kIndexAfterScans indexes the side for the rest of the
// pair instead. So a pair scans a bare side at most that many times, however
// many cuts its boundary has.
Location LocateIn(const PreparedPolygon& side, const Point& p) {
  if (!side.Indexed()) {
    if (!side.Bounds().Contains(p)) return Location::kExterior;
    side.CountScan();
    if (!side.Indexed()) return LocateUnindexed(side.Geometry(), p);
  }
  return side.EdgeIndex().Locate(p);
}

SideFlags ClassifySide(const ArrangementSide& side,
                       const PreparedPolygon& other) {
  SideFlags flags;
  flags.on_boundary = side.has_shared_piece;
  flags.in_exterior = side.outside_window;
  for (const Point& mid : side.midpoints) {
    if (flags.in_interior && flags.in_exterior && flags.on_boundary) break;
    switch (LocateIn(other, mid)) {
      case Location::kInterior: flags.in_interior = true; break;
      case Location::kExterior: flags.in_exterior = true; break;
      case Location::kBoundary:
        // Only reachable through double rounding of a split point; the exact
        // classification would be a shared piece, so treat it as one.
        flags.on_boundary = true;
        break;
    }
  }
  return flags;
}

Matrix DisjointMatrix() {
  // Two disjoint polygons: each boundary and interior meets only the other's
  // exterior.
  Matrix m;
  m.Set(Part::kInterior, Part::kExterior, Dim::k2);
  m.Set(Part::kBoundary, Part::kExterior, Dim::k1);
  m.Set(Part::kExterior, Part::kInterior, Dim::k2);
  m.Set(Part::kExterior, Part::kBoundary, Dim::k1);
  m.Set(Part::kExterior, Part::kExterior, Dim::k2);
  return m;
}

}  // namespace

Matrix RelateEngine::Relate(const Polygon& r, const Polygon& s) {
  const PreparedPolygon pr(r);
  const PreparedPolygon ps(s);
  if (IndexBoth(r, s)) {
    pr.Warm();
    ps.Warm();
  }
  return Relate(pr, ps);
}

Matrix RelateEngine::Relate(const PreparedPolygon& r,
                            const PreparedPolygon& s) {
  if (!r.Bounds().Intersects(s.Bounds())) return DisjointMatrix();

  const Arrangement arr = ComputeArrangement(r, s);
  const SideFlags rb = ClassifySide(arr.r, s);  // B(r) vs s
  const SideFlags sb = ClassifySide(arr.s, r);  // B(s) vs r

  Matrix m;
  m.Set(Part::kExterior, Part::kExterior, Dim::k2);

  // Boundary row/column: a boundary piece in the other's interior or exterior
  // is one-dimensional; shared boundary pieces are one-dimensional, isolated
  // touch points zero-dimensional.
  if (rb.in_interior) m.Set(Part::kBoundary, Part::kInterior, Dim::k1);
  if (rb.in_exterior) m.Set(Part::kBoundary, Part::kExterior, Dim::k1);
  if (sb.in_interior) m.Set(Part::kInterior, Part::kBoundary, Dim::k1);
  if (sb.in_exterior) m.Set(Part::kExterior, Part::kBoundary, Dim::k1);
  if (rb.on_boundary || sb.on_boundary) {
    m.Set(Part::kBoundary, Part::kBoundary, Dim::k1);
  } else if (arr.boundaries_touch) {
    m.Set(Part::kBoundary, Part::kBoundary, Dim::k0);
  }

  // Interior/interior: boundary-in-interior evidence implies open overlap.
  // Otherwise each connected interior is wholly inside, wholly outside, or
  // equal to the other, and a common point means equal interiors, so equal
  // MBRs: a side's (memoized) representative point is worth computing only
  // when its MBR lies inside the other's.
  bool ii = rb.in_interior || sb.in_interior;
  if (!ii && s.Bounds().Contains(r.Bounds())) {
    const Point* pr = r.InteriorPoint();
    ii = pr != nullptr && LocateIn(s, *pr) == Location::kInterior;
  }
  if (!ii && r.Bounds().Contains(s.Bounds())) {
    const Point* ps = s.InteriorPoint();
    ii = ps != nullptr && LocateIn(r, *ps) == Location::kInterior;
  }
  if (ii) m.Set(Part::kInterior, Part::kInterior, Dim::k2);

  // Interior(r) vs exterior(s): r's boundary reaching E(s), or s's boundary
  // cutting through I(r) (one side of it is E(s)). Without either, I(r)
  // lies wholly in I(s) or wholly in E(s); a piece of r's boundary in I(s)
  // decides for I(s), so only a boundary lying wholly on s's needs r's
  // representative point.
  bool ie = rb.in_exterior || sb.in_interior;
  if (!ie && !rb.in_interior) {
    const Point* pr = r.InteriorPoint();
    ie = pr != nullptr && LocateIn(s, *pr) == Location::kExterior;
  }
  if (ie) m.Set(Part::kInterior, Part::kExterior, Dim::k2);

  // Exterior(r) vs interior(s): symmetric.
  bool ei = sb.in_exterior || rb.in_interior;
  if (!ei && !sb.in_interior) {
    const Point* ps = s.InteriorPoint();
    ei = ps != nullptr && LocateIn(r, *ps) == Location::kExterior;
  }
  if (ei) m.Set(Part::kExterior, Part::kInterior, Dim::k2);

  return m;
}

Matrix RelateMatrix(const Polygon& r, const Polygon& s) {
  return RelateEngine::Relate(r, s);
}

Relation FindRelationExact(const Polygon& r, const Polygon& s) {
  return MostSpecificRelation(RelateMatrix(r, s));
}

}  // namespace stj::de9im
