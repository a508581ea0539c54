#include "src/geometry/edge_slab_index.h"

#include <algorithm>
#include <limits>

#include "src/geometry/predicates.h"
#include "src/util/check.h"

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

EdgeSlabIndex::EdgeSlabIndex(const Polygon& poly) : bounds_(poly.Bounds()) {
  edges_.reserve(poly.VertexCount());
  poly.ForEachEdge([this](const Segment& e) { edges_.push_back(e); });
  const size_t n = edges_.size();
  num_slabs_ = std::max<size_t>(1, n / 4);
  const double height = bounds_.Height();
  inv_height_ = (height > 0.0 && num_slabs_ > 1)
                    ? static_cast<double>(num_slabs_) / height
                    : 0.0;
  if (inv_height_ == 0.0) num_slabs_ = 1;

  // Count pass: offsets_[s] counts the edges in slab s; the running sum
  // turns each count into the end of that slab's ids.
  offsets_.assign(num_slabs_ + 1, 0);
  for (const Segment& e : edges_) {
    const size_t last = SlabOf(std::max(e.a.y, e.b.y));
    for (size_t s = FirstSlab(e); s <= last; ++s) ++offsets_[s];
  }
  uint64_t total = 0;
  for (uint32_t& offset : offsets_) {
    total += offset;
    STJ_CHECK_MSG(total <= std::numeric_limits<uint32_t>::max(),
                  "slab entries must fit 32-bit offsets");
    offset = static_cast<uint32_t>(total);
  }

  // Fill pass, backwards over the edges, moving each slab's end down to its
  // start: every slab lists its ids ascending.
  ids_.resize(total);
  for (size_t i = n; i-- > 0;) {
    const Segment& e = edges_[i];
    const size_t last = SlabOf(std::max(e.a.y, e.b.y));
    for (size_t s = FirstSlab(e); s <= last; ++s) {
      ids_[--offsets_[s]] = static_cast<uint32_t>(i);
    }
  }
}

size_t EdgeSlabIndex::SlabOf(double y) const {
  if (num_slabs_ == 1) return 0;
  const double t = (y - bounds_.min.y) * inv_height_;
  if (t <= 0.0) return 0;
  return std::min(static_cast<size_t>(t), num_slabs_ - 1);
}

Location EdgeSlabIndex::Locate(const Point& p) const {
  if (!bounds_.Contains(p)) return Location::kExterior;
  const size_t s = SlabOf(p.y);
  bool inside = false;
  for (uint32_t k = offsets_[s]; k < offsets_[s + 1]; ++k) {
    const Segment& e = edges_[ids_[k]];
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
