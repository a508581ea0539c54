#include "src/de9im/boundary_arrangement.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "src/geometry/box.h"
#include "src/geometry/edge_slab_index.h"
#include "src/geometry/prepared_polygon.h"
#include "src/geometry/segment.h"
#include "src/util/check.h"

namespace stj::de9im {

namespace {

// Normalised parameter of a point known to lie on segment [a, b], measured
// along the dominant axis. Exact for the endpoints; monotone in between.
double ParamOnSegment(const Point& p, const Point& a, const Point& b) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  if (std::abs(dx) >= std::abs(dy)) {
    return dx == 0.0 ? 0.0 : (p.x - a.x) / dx;
  }
  return (p.y - a.y) / dy;
}

// One side's split bookkeeping, accumulated during intersection discovery:
// every cut and every collinear shared range, tagged with its windowed edge.
struct SideSplits {
  struct Cut {
    uint32_t edge;
    double t;  // in (0,1)
    Point p;
  };
  struct Shared {
    uint32_t edge;
    double t0;  // <= t1
    double t1;
  };
  std::vector<Cut> cuts;
  std::vector<Shared> shared;
};

void RecordCut(SideSplits* splits, uint32_t edge, double t, const Point& p) {
  if (t > 0.0 && t < 1.0) splits->cuts.push_back({edge, t, p});
}

void RecordShared(SideSplits* splits, uint32_t edge, double t0,
                  const Point& p0, double t1, const Point& p1) {
  if (t0 > t1) {
    RecordShared(splits, edge, t1, p1, t0, p0);
    return;
  }
  RecordCut(splits, edge, t0, p0);
  RecordCut(splits, edge, t1, p1);
  splits->shared.push_back({edge, t0, t1});
}

// Emits the sub-edge midpoints of one side's edges into `side`.
void EmitSide(const std::vector<Segment>& edges, SideSplits* splits,
              ArrangementSide* side) {
  using Cut = SideSplits::Cut;
  using Shared = SideSplits::Shared;
  std::vector<Cut>& cuts = splits->cuts;
  std::vector<Shared>& shared = splits->shared;
  // Ties on t are ordered by point, so the cut kept for a t does not
  // depend on the order in which intersections were discovered.
  std::sort(cuts.begin(), cuts.end(), [](const Cut& a, const Cut& b) {
    if (a.edge != b.edge) return a.edge < b.edge;
    if (a.t != b.t) return a.t < b.t;
    return LexLess(a.p, b.p);
  });
  std::sort(shared.begin(), shared.end(), [](const Shared& a, const Shared& b) {
    if (a.edge != b.edge) return a.edge < b.edge;
    if (a.t0 != b.t0) return a.t0 < b.t0;
    return a.t1 < b.t1;
  });
  side->midpoints.reserve(edges.size() + cuts.size());

  size_t next_cut = 0;
  size_t next_shared = 0;
  std::vector<std::pair<double, double>> merged;
  for (uint32_t i = 0; i < edges.size(); ++i) {
    const Segment& e = edges[i];
    const size_t cut_begin = next_cut;
    while (next_cut < cuts.size() && cuts[next_cut].edge == i) ++next_cut;
    // Merge this edge's collinear shared ranges.
    merged.clear();
    for (; next_shared < shared.size() && shared[next_shared].edge == i;
         ++next_shared) {
      const Shared& range = shared[next_shared];
      if (!merged.empty() && range.t0 <= merged.back().second) {
        merged.back().second = std::max(merged.back().second, range.t1);
      } else {
        merged.emplace_back(range.t0, range.t1);
      }
    }
    if (cut_begin == next_cut && merged.empty()) {
      side->midpoints.push_back(e.Mid());
      continue;
    }
    if (!merged.empty()) side->has_shared_piece = true;

    auto in_shared = [&merged](double t) {
      for (const auto& range : merged) {
        if (t >= range.first && t <= range.second) return true;
      }
      return false;
    };

    // Walk consecutive split points (including the edge endpoints), keeping
    // the first cut of each t.
    double prev_t = 0.0;
    Point prev_p = e.a;
    auto emit_piece = [&](double next_t, const Point& next_p) {
      if (next_t <= prev_t) {
        prev_t = next_t;
        prev_p = next_p;
        return;
      }
      const double mid_t = 0.5 * (prev_t + next_t);
      if (!in_shared(mid_t)) {
        side->midpoints.push_back(Midpoint(prev_p, next_p));
      }
      prev_t = next_t;
      prev_p = next_p;
    };
    for (size_t k = cut_begin; k < next_cut; ++k) {
      if (k > cut_begin && cuts[k].t == cuts[k - 1].t) continue;
      emit_piece(cuts[k].t, cuts[k].p);
    }
    emit_piece(1.0, e.b);
  }
}

// The edges of one polygon whose MBR meets the window, in
// EdgeSlabIndex::Edges() order.
struct WindowEdges {
  std::vector<Segment> edges;
  std::vector<uint32_t> ids;  // indexed side: each edge's position in Edges()
  bool outside = false;       // some edge misses the window
};

WindowEdges CollectWindow(const PreparedPolygon& side, const Box& window) {
  WindowEdges out;
  if (!side.Indexed()) side.CountScan();  // may index the side
  if (side.Indexed()) {
    // Every edge that meets the window overlaps its y-range, so the edge
    // index's probe finds them all; sorting restores Edges() order.
    const EdgeSlabIndex& index = side.EdgeIndex();
    const std::vector<Segment>& edges = index.Edges();
    index.Probe(window.min.y, window.max.y, [&](uint32_t id) {
      if (edges[id].Bounds().Intersects(window)) out.ids.push_back(id);
    });
    std::sort(out.ids.begin(), out.ids.end());
    out.edges.reserve(out.ids.size());
    for (const uint32_t id : out.ids) out.edges.push_back(edges[id]);
    out.outside = out.ids.size() < edges.size();
    return out;
  }
  const auto scan_ring = [&](const Ring& ring) {
    const size_t n = ring.Size();
    if (!ring.Bounds().Intersects(window)) {
      out.outside = out.outside || n > 0;
      return;
    }
    const std::vector<Point>& v = ring.Vertices();
    for (size_t i = 0; i < n; ++i) {
      const Segment e{v[i], v[i + 1 == n ? 0 : i + 1]};
      if (e.Bounds().Intersects(window)) {
        out.edges.push_back(e);
      } else {
        out.outside = true;
      }
    }
  };
  scan_ring(side.Geometry().Outer());
  for (const Ring& hole : side.Geometry().Holes()) scan_ring(hole);
  return out;
}

// Calls visit(i, j) for every windowed edge i of `probing` and windowed
// edge j of `indexed` whose MBRs meet, finding the j through the indexed
// side's edge index: the pairs the nested loop over both window lists
// visits. An edge whose MBR misses the window is skipped even when it
// meets a windowed edge, which only an edge outside its own polygon's MBR
// can (an invalid hole crossing its shell); it is not in `indexed_window`.
template <typename Visit>
void ProbeIndexed(const WindowEdges& probing, const PreparedPolygon& indexed,
                  const WindowEdges& indexed_window, const Box& window,
                  const Visit& visit) {
  const EdgeSlabIndex& index = indexed.EdgeIndex();
  const std::vector<Segment>& edges = index.Edges();
  const std::vector<uint32_t>& ids = indexed_window.ids;
  for (uint32_t i = 0; i < probing.edges.size(); ++i) {
    const Box box = probing.edges[i].Bounds();
    index.Probe(box.min.y, box.max.y, [&](uint32_t id) {
      const Box id_box = edges[id].Bounds();
      if (!id_box.Intersects(box) || !id_box.Intersects(window)) return;
      const auto it = std::lower_bound(ids.begin(), ids.end(), id);
      STJ_DCHECK(it != ids.end() && *it == id);
      visit(i, static_cast<uint32_t>(it - ids.begin()));
    });
  }
}

}  // namespace

Arrangement ComputeArrangement(const PreparedPolygon& r,
                               const PreparedPolygon& s) {
  Arrangement out;
  const Box window = r.Bounds().Intersection(s.Bounds());
  const WindowEdges rw = CollectWindow(r, window);
  const WindowEdges sw = CollectWindow(s, window);
  SideSplits r_splits;
  SideSplits s_splits;

  // Intersects windowed edge i of r with windowed edge j of s and records
  // the split points on both. Always r first, so the computed points do
  // not depend on which side drives discovery.
  const auto split = [&](uint32_t i, uint32_t j) {
    const Segment& re = rw.edges[i];
    const Segment& se = sw.edges[j];
    const SegIntersection isect = IntersectSegments(re.a, re.b, se.a, se.b);
    if (isect.kind == SegIntersectKind::kNone) return;
    out.boundaries_touch = true;
    if (isect.kind == SegIntersectKind::kPoint) {
      RecordCut(&r_splits, i, ParamOnSegment(isect.p0, re.a, re.b), isect.p0);
      RecordCut(&s_splits, j, ParamOnSegment(isect.p0, se.a, se.b), isect.p0);
    } else {
      RecordShared(&r_splits, i, ParamOnSegment(isect.p0, re.a, re.b),
                   isect.p0, ParamOnSegment(isect.p1, re.a, re.b), isect.p1);
      RecordShared(&s_splits, j, ParamOnSegment(isect.p0, se.a, se.b),
                   isect.p0, ParamOnSegment(isect.p1, se.a, se.b), isect.p1);
    }
  };

  if (s.Indexed()) {
    ProbeIndexed(rw, s, sw, window, split);
  } else if (r.Indexed()) {
    ProbeIndexed(sw, r, rw, window,
                 [&](uint32_t j, uint32_t i) { split(i, j); });
  } else {
    for (uint32_t i = 0; i < rw.edges.size(); ++i) {
      const Box re_box = rw.edges[i].Bounds();
      for (uint32_t j = 0; j < sw.edges.size(); ++j) {
        if (re_box.Intersects(sw.edges[j].Bounds())) split(i, j);
      }
    }
  }

  out.r.outside_window = rw.outside;
  out.s.outside_window = sw.outside;
  EmitSide(rw.edges, &r_splits, &out.r);
  EmitSide(sw.edges, &s_splits, &out.s);
  return out;
}

Arrangement ComputeArrangement(const Polygon& r, const Polygon& s) {
  return ComputeArrangement(PreparedPolygon(r), PreparedPolygon(s));
}

}  // namespace stj::de9im
