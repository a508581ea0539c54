#include "src/geometry/locator.h"

#include <algorithm>
#include <cmath>

#include "src/geometry/predicates.h"

namespace stj {

namespace {

// One edge's step of the exact +x ray cast from p. Returns true when p lies
// on edge ab (the point is on the boundary); otherwise toggles *inside when
// the ray crosses ab. The half-open rule counts each vertex crossing once.
bool OnEdgeOrToggle(const Point& p, const Point& a, const Point& b,
                    bool* inside) {
  // On-boundary test with a cheap bounding-box pre-filter.
  if (p.x >= std::min(a.x, b.x) && p.x <= std::max(a.x, b.x) &&
      p.y >= std::min(a.y, b.y) && p.y <= std::max(a.y, b.y) &&
      OnSegment(p, a, b)) {
    return true;
  }
  if (a.y <= p.y) {
    if (b.y > p.y && OrientSign(a, b, p) == Sign::kPositive) {
      *inside = !*inside;
    }
  } else {
    if (b.y <= p.y && OrientSign(a, b, p) == Sign::kNegative) {
      *inside = !*inside;
    }
  }
  return false;
}

}  // namespace

PolygonLocator::PolygonLocator(const Polygon& poly) : poly_(&poly) {
  const Box& bounds = poly.Bounds();
  const size_t num_edges = poly.VertexCount();
  // ~4 edges per slab on average keeps both build cost and query cost low.
  num_slabs_ = std::max<size_t>(1, num_edges / 4);
  const double height = bounds.Height();
  y_lo_ = bounds.min.y;
  if (height > 0.0 && num_slabs_ > 1) {
    inv_slab_height_ = static_cast<double>(num_slabs_) / height;
  } else {
    num_slabs_ = 1;
    inv_slab_height_ = 0.0;
  }
  slabs_.resize(num_slabs_);
  poly.ForEachEdge([this](const Segment& e) {
    const double lo = std::min(e.a.y, e.b.y);
    const double hi = std::max(e.a.y, e.b.y);
    const size_t first = SlabIndex(lo);
    const size_t last = SlabIndex(hi);
    for (size_t s = first; s <= last; ++s) slabs_[s].push_back(Edge{e.a, e.b});
  });
}

size_t PolygonLocator::SlabIndex(double y) const {
  if (num_slabs_ == 1) return 0;
  const double t = (y - y_lo_) * inv_slab_height_;
  if (t <= 0.0) return 0;
  const size_t idx = static_cast<size_t>(t);
  return std::min(idx, num_slabs_ - 1);
}

Location PolygonLocator::Locate(const Point& p) const {
  if (!poly_->Bounds().Contains(p)) return Location::kExterior;
  const std::vector<Edge>& slab = slabs_[SlabIndex(p.y)];
  bool inside = false;
  for (const Edge& e : slab) {
    if (OnEdgeOrToggle(p, e.a, e.b, &inside)) return Location::kBoundary;
  }
  // Even-odd over all rings equals OGC interior for valid polygons with
  // properly nested holes.
  return inside ? Location::kInterior : Location::kExterior;
}

Location LocateUnindexed(const Polygon& poly, const Point& p) {
  if (!poly.Bounds().Contains(p)) return Location::kExterior;
  bool inside = false;
  const auto scan_ring = [&p, &inside](const Ring& ring) {
    // A ring whose y-range misses p has no edge the ray or p can touch.
    if (p.y < ring.Bounds().min.y || p.y > ring.Bounds().max.y) return false;
    const std::vector<Point>& v = ring.Vertices();
    const size_t n = v.size();
    for (size_t i = 0; i < n; ++i) {
      const Point& a = v[i];
      const Point& b = v[i + 1 == n ? 0 : i + 1];
      // An edge whose y-span misses p neither crosses the ray nor holds p.
      if ((a.y < p.y && b.y < p.y) || (a.y > p.y && b.y > p.y)) continue;
      if (OnEdgeOrToggle(p, a, b, &inside)) return true;
    }
    return false;
  };
  if (scan_ring(poly.Outer())) return Location::kBoundary;
  for (const Ring& hole : poly.Holes()) {
    if (scan_ring(hole)) return Location::kBoundary;
  }
  return inside ? Location::kInterior : Location::kExterior;
}

}  // namespace stj
