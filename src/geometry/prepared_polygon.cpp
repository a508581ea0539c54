#include "src/geometry/prepared_polygon.h"

#include "src/geometry/point_on_surface.h"
#include "src/util/check.h"
#include "src/util/timer.h"

namespace stj {

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
  index_ = std::make_unique<const EdgeSlabIndex>(*poly_);
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
  // The EdgeSlabIndex's CSR layout: per edge one Segment and its slab ids
  // (1.0 to 1.75 per edge on the generated datasets, counted as 2), per
  // four edges one slab offset, plus both objects.
  constexpr size_t kIdsPerEdge = 2;
  const size_t n = poly.VertexCount();
  return sizeof(PreparedPolygon) + sizeof(EdgeSlabIndex) +
         n * (sizeof(Segment) + kIdsPerEdge * sizeof(uint32_t)) +
         (n / 4 + 2) * sizeof(uint32_t);
}

}  // namespace stj
