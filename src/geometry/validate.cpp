#include "src/geometry/validate.h"

#include <string>

#include "src/geometry/point_in_polygon.h"
#include "src/geometry/predicates.h"
#include "src/geometry/segment.h"

namespace stj {

namespace {

// True if edges i and j of the ring intersect anywhere they are not allowed
// to: non-adjacent edges may not touch at all; adjacent edges may share only
// their common endpoint.
bool EdgesConflict(const Ring& ring, size_t i, size_t j) {
  const size_t n = ring.Size();
  const Segment ei = ring.Edge(i);
  const Segment ej = ring.Edge(j);
  if (!ei.Bounds().Intersects(ej.Bounds())) return false;
  const bool adjacent = (j == (i + 1) % n) || (i == (j + 1) % n);
  const SegIntersection isect = IntersectSegments(ei.a, ei.b, ej.a, ej.b);
  if (isect.kind == SegIntersectKind::kNone) return false;
  if (!adjacent) return true;
  if (isect.kind == SegIntersectKind::kOverlap) return true;
  // Adjacent edges: the single shared point must be the shared vertex.
  const Point& shared = (j == (i + 1) % n) ? ei.b : ei.a;
  return !(isect.p0 == shared);
}

// True if any edge of ring a crosses or touches any edge of ring b in a way
// that makes a nested-rings polygon invalid (proper crossing, or collinear
// overlap). Shared isolated touch points are allowed by OGC for hole rings.
bool RingsCross(const Ring& a, const Ring& b) {
  if (!a.Bounds().Intersects(b.Bounds())) return false;
  for (size_t i = 0; i < a.Size(); ++i) {
    const Segment ea = a.Edge(i);
    for (size_t j = 0; j < b.Size(); ++j) {
      const Segment eb = b.Edge(j);
      if (!ea.Bounds().Intersects(eb.Bounds())) continue;
      const SegIntersection isect = IntersectSegments(ea.a, ea.b, eb.a, eb.b);
      if (isect.kind == SegIntersectKind::kOverlap) return true;
      if (isect.kind == SegIntersectKind::kPoint && isect.proper) return true;
    }
  }
  return false;
}

}  // namespace

ValidationResult ValidateRing(const Ring& ring) {
  const size_t n = ring.Size();
  if (n < 3) return ValidationResult::Fail("ring has fewer than 3 vertices");
  for (size_t i = 0; i < n; ++i) {
    if (ring[i] == ring[(i + 1) % n]) {
      return ValidationResult::Fail("repeated consecutive vertex at index " +
                                    std::to_string(i));
    }
  }
  if (ring.SignedArea2() == 0.0) {
    return ValidationResult::Fail("ring has zero area");
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (EdgesConflict(ring, i, j)) {
        return ValidationResult::Fail("self-intersection between edges " +
                                      std::to_string(i) + " and " +
                                      std::to_string(j));
      }
    }
  }
  return ValidationResult::Ok();
}

ValidationResult ValidateRingAreas(const Polygon& poly) {
  if (poly.Outer().SignedArea2() == 0.0) {
    return ValidationResult::Fail("outer ring has zero area");
  }
  for (size_t h = 0; h < poly.Holes().size(); ++h) {
    if (poly.Holes()[h].SignedArea2() == 0.0) {
      return ValidationResult::Fail("hole " + std::to_string(h) +
                                    " has zero area");
    }
  }
  return ValidationResult::Ok();
}

namespace {

// Removes repeated consecutive vertices, treating the ring as closed (so a
// trailing vertex equal to the first is dropped too). Returns true if any
// vertex was removed.
bool DedupeRingVertices(const Ring& ring, std::vector<Point>* out) {
  out->clear();
  for (size_t i = 0; i < ring.Size(); ++i) {
    if (!out->empty() && ring[i] == out->back()) continue;
    out->push_back(ring[i]);
  }
  while (out->size() > 1 && out->back() == out->front()) out->pop_back();
  return out->size() != ring.Size();
}

void AppendAction(std::string* what, const std::string& action) {
  if (what == nullptr) return;
  if (!what->empty()) what->append(", ");
  what->append(action);
}

}  // namespace

RepairOutcome RepairPolygon(const Polygon& poly, Polygon* out,
                            std::string* what) {
  if (what != nullptr) what->clear();
  bool changed = false;

  std::vector<Point> outer_pts;
  if (DedupeRingVertices(poly.Outer(), &outer_pts)) {
    changed = true;
    AppendAction(what, "deduplicated outer-ring vertices");
  }
  Ring outer(std::move(outer_pts));
  if (outer.Size() < 3 || outer.SignedArea2() == 0.0) {
    return RepairOutcome::kUnrepairable;
  }

  std::vector<Ring> holes;
  holes.reserve(poly.Holes().size());
  for (size_t h = 0; h < poly.Holes().size(); ++h) {
    std::vector<Point> hole_pts;
    if (DedupeRingVertices(poly.Holes()[h], &hole_pts)) {
      changed = true;
      AppendAction(what,
                   "deduplicated hole " + std::to_string(h) + " vertices");
    }
    Ring hole(std::move(hole_pts));
    if (hole.Size() < 3 || hole.SignedArea2() == 0.0) {
      changed = true;
      AppendAction(what, "dropped degenerate hole " + std::to_string(h));
      continue;
    }
    holes.push_back(std::move(hole));
  }

  // Polygon's constructor renormalises winding, so a backwards input ring is
  // repaired implicitly and does not count as a change here.
  *out = Polygon(std::move(outer), std::move(holes));
  return changed ? RepairOutcome::kRepaired : RepairOutcome::kUnchanged;
}

ValidationResult ValidatePolygon(const Polygon& poly) {
  ValidationResult outer = ValidateRing(poly.Outer());
  if (!outer.valid) {
    outer.reason = "outer ring: " + outer.reason;
    return outer;
  }
  for (size_t h = 0; h < poly.Holes().size(); ++h) {
    const Ring& hole = poly.Holes()[h];
    ValidationResult res = ValidateRing(hole);
    if (!res.valid) {
      res.reason = "hole " + std::to_string(h) + ": " + res.reason;
      return res;
    }
    // Every hole vertex must be inside or on the outer ring.
    for (const Point& p : hole.Vertices()) {
      if (LocateInRing(p, poly.Outer()) == Location::kExterior) {
        return ValidationResult::Fail("hole " + std::to_string(h) +
                                      " extends outside the outer ring");
      }
    }
    if (RingsCross(hole, poly.Outer())) {
      return ValidationResult::Fail("hole " + std::to_string(h) +
                                    " crosses the outer ring");
    }
    for (size_t g = h + 1; g < poly.Holes().size(); ++g) {
      if (RingsCross(hole, poly.Holes()[g])) {
        return ValidationResult::Fail("holes " + std::to_string(h) + " and " +
                                      std::to_string(g) + " cross");
      }
    }
  }
  return ValidationResult::Ok();
}

}  // namespace stj
