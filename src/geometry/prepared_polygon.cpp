#include "src/geometry/prepared_polygon.h"

#include "src/geometry/point_on_surface.h"
#include "src/util/check.h"
#include "src/util/timer.h"

namespace stj {

const PolygonLocator& PreparedPolygon::Locator() const {
  STJ_DCHECK_MSG(Indexed(), "Locator() before Warm()");
  return *locator_;
}

const std::vector<Segment>& PreparedPolygon::Edges() const {
  STJ_DCHECK_MSG(Indexed(), "Edges() before Warm()");
  return edges_;
}

const EdgeSlabIndex& PreparedPolygon::EdgeIndex() const {
  STJ_DCHECK_MSG(Indexed(), "EdgeIndex() before Warm()");
  return *index_;
}

const Point* PreparedPolygon::InteriorPoint() const {
  if (!interior_computed_) {
    interior_computed_ = true;
    Point p;
    if (PointOnSurface(*poly_, &p)) interior_ = p;
  }
  return interior_.has_value() ? &*interior_ : nullptr;
}

void PreparedPolygon::Warm() const {
  if (Indexed()) return;
  const Timer timer;
  edges_.reserve(poly_->VertexCount());
  poly_->ForEachEdge([this](const Segment& e) { edges_.push_back(e); });
  locator_ = std::make_unique<PolygonLocator>(*poly_);
  index_ = std::make_unique<EdgeSlabIndex>(edges_, poly_->Bounds());
  build_seconds_ = timer.ElapsedSeconds();
}

void PreparedPolygon::CountScan() const {
  if (Indexed()) return;
  if (++scans_ >= kIndexAfterScans) {
    scans_ = kIndexAfterScans;
    Warm();
  }
}

size_t PreparedPolygon::EstimateBytes(const Polygon& poly) {
  // Per vertex: one Segment in the edge array (32 B), one Edge{a, b} in a
  // locator slab (32 B, edges spanning slabs counted once), one uint32 slab
  // entry + one uint32 visited stamp in the edge index (8 B), plus ~24 B of
  // slab-vector overhead across both indexes at ~4 edges per slab.
  constexpr size_t kBytesPerVertex = 96;
  constexpr size_t kFixedOverhead = 512;
  return sizeof(PreparedPolygon) + kFixedOverhead +
         poly.VertexCount() * kBytesPerVertex;
}

}  // namespace stj
