// Differential test of windowed refinement. RelateEngine relates only the
// boundary inside W = MBR(r) ∩ MBR(s), and works on each side through that
// object's indexes or bare; whatever the combination, and with r and s
// swapped, the matrix must be exactly what the whole-boundary engine it
// replaced returns. That engine is kept below as the oracle, independent
// of the production indexes: the arrangement over every pair of edges of
// the two polygons (MBR test first), the plain ring-by-ring Locate of
// point_in_polygon.h for every sub-edge midpoint, and both representative
// points whenever boundary evidence leaves an interior entry open. The pairs are every MBR-join
// candidate of the seven scenarios: what an ST2 join refines, and so a
// superset of the pairs the P+C filter leaves to refinement for
// find-relation or for a relate_p `inside` query.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/datasets/scenarios.h"
#include "src/de9im/relate_engine.h"
#include "src/geometry/point_in_polygon.h"
#include "src/geometry/point_on_surface.h"
#include "src/geometry/prepared_polygon.h"
#include "src/geometry/segment.h"
#include "tests/test_support.h"

namespace stj::de9im {
namespace {

// ------------------------------------------------------------------ oracle

// What the whole-boundary engine kept per object: the flattened edges and
// the representative point.
struct OraclePolygon {
  explicit OraclePolygon(const Polygon& p) : poly(&p) {
    p.ForEachEdge([this](const Segment& e) { edges.push_back(e); });
    Point point;
    if (PointOnSurface(p, &point)) interior = point;
  }

  const Box& Bounds() const { return poly->Bounds(); }
  const Point* InteriorPoint() const {
    return interior.has_value() ? &*interior : nullptr;
  }
  Location LocateIn(const Point& p) const { return Locate(p, *poly); }

  const Polygon* poly;
  std::vector<Segment> edges;
  std::optional<Point> interior;
};

double ParamOnSegment(const Point& p, const Point& a, const Point& b) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  if (std::abs(dx) >= std::abs(dy)) {
    return dx == 0.0 ? 0.0 : (p.x - a.x) / dx;
  }
  return (p.y - a.y) / dy;
}

struct EdgeSplits {
  std::vector<std::pair<double, Point>> cuts;
  std::vector<std::pair<double, double>> shared_ranges;
};

void RecordCut(EdgeSplits* splits, double t, const Point& p) {
  if (t > 0.0 && t < 1.0) splits->cuts.emplace_back(t, p);
}

void RecordShared(EdgeSplits* splits, double t0, const Point& p0, double t1,
                  const Point& p1) {
  if (t0 > t1) {
    RecordShared(splits, t1, p1, t0, p0);
    return;
  }
  RecordCut(splits, t0, p0);
  RecordCut(splits, t1, p1);
  splits->shared_ranges.emplace_back(t0, t1);
}

struct OracleSide {
  std::vector<Point> midpoints;
  bool has_shared_piece = false;
};

struct OracleArrangement {
  OracleSide r;
  OracleSide s;
  bool boundaries_touch = false;
};

void EmitSide(const std::vector<Segment>& edges,
              std::vector<EdgeSplits>* splits, OracleSide* side) {
  std::vector<std::pair<double, Point>> cuts;
  for (size_t i = 0; i < edges.size(); ++i) {
    const Segment& e = edges[i];
    EdgeSplits& sp = (*splits)[i];
    if (sp.cuts.empty() && sp.shared_ranges.empty()) {
      side->midpoints.push_back(e.Mid());
      continue;
    }
    cuts = std::move(sp.cuts);
    std::sort(cuts.begin(), cuts.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    cuts.erase(std::unique(cuts.begin(), cuts.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               cuts.end());
    std::sort(sp.shared_ranges.begin(), sp.shared_ranges.end());
    std::vector<std::pair<double, double>> merged;
    for (const auto& range : sp.shared_ranges) {
      if (!merged.empty() && range.first <= merged.back().second) {
        merged.back().second = std::max(merged.back().second, range.second);
      } else {
        merged.push_back(range);
      }
    }
    if (!merged.empty()) side->has_shared_piece = true;

    auto in_shared = [&merged](double t) {
      for (const auto& range : merged) {
        if (t >= range.first && t <= range.second) return true;
      }
      return false;
    };

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
    for (const auto& [t, p] : cuts) emit_piece(t, p);
    emit_piece(1.0, e.b);
  }
}

OracleArrangement ComputeOracleArrangement(const OraclePolygon& r,
                                           const OraclePolygon& s) {
  OracleArrangement out;
  const std::vector<Segment>& r_edges = r.edges;
  const std::vector<Segment>& s_edges = s.edges;
  std::vector<EdgeSplits> r_splits(r_edges.size());
  std::vector<EdgeSplits> s_splits(s_edges.size());

  for (size_t i = 0; i < r_edges.size(); ++i) {
    const Segment& re = r_edges[i];
    const Box re_box = re.Bounds();
    for (size_t j = 0; j < s_edges.size(); ++j) {
      const Segment& se = s_edges[j];
      if (!re_box.Intersects(se.Bounds())) continue;
      const SegIntersection isect = IntersectSegments(re.a, re.b, se.a, se.b);
      if (isect.kind == SegIntersectKind::kNone) continue;
      out.boundaries_touch = true;
      if (isect.kind == SegIntersectKind::kPoint) {
        RecordCut(&r_splits[i], ParamOnSegment(isect.p0, re.a, re.b),
                  isect.p0);
        RecordCut(&s_splits[j], ParamOnSegment(isect.p0, se.a, se.b),
                  isect.p0);
      } else {
        RecordShared(&r_splits[i], ParamOnSegment(isect.p0, re.a, re.b),
                     isect.p0, ParamOnSegment(isect.p1, re.a, re.b),
                     isect.p1);
        RecordShared(&s_splits[j], ParamOnSegment(isect.p0, se.a, se.b),
                     isect.p0, ParamOnSegment(isect.p1, se.a, se.b),
                     isect.p1);
      }
    }
  }

  EmitSide(r_edges, &r_splits, &out.r);
  EmitSide(s_edges, &s_splits, &out.s);
  return out;
}

struct SideFlags {
  bool in_interior = false;
  bool in_exterior = false;
  bool on_boundary = false;
};

SideFlags ClassifySide(const OracleSide& side, const OraclePolygon& other) {
  SideFlags flags;
  flags.on_boundary = side.has_shared_piece;
  for (const Point& mid : side.midpoints) {
    if (flags.in_interior && flags.in_exterior && flags.on_boundary) break;
    switch (other.LocateIn(mid)) {
      case Location::kInterior: flags.in_interior = true; break;
      case Location::kExterior: flags.in_exterior = true; break;
      case Location::kBoundary: flags.on_boundary = true; break;
    }
  }
  return flags;
}

Matrix DisjointMatrix() {
  Matrix m;
  m.Set(Part::kInterior, Part::kExterior, Dim::k2);
  m.Set(Part::kBoundary, Part::kExterior, Dim::k1);
  m.Set(Part::kExterior, Part::kInterior, Dim::k2);
  m.Set(Part::kExterior, Part::kBoundary, Dim::k1);
  m.Set(Part::kExterior, Part::kExterior, Dim::k2);
  return m;
}

Matrix OracleRelate(const OraclePolygon& r, const OraclePolygon& s) {
  if (!r.Bounds().Intersects(s.Bounds())) return DisjointMatrix();

  const OracleArrangement arr = ComputeOracleArrangement(r, s);
  const SideFlags rb = ClassifySide(arr.r, s);
  const SideFlags sb = ClassifySide(arr.s, r);

  Matrix m;
  m.Set(Part::kExterior, Part::kExterior, Dim::k2);
  if (rb.in_interior) m.Set(Part::kBoundary, Part::kInterior, Dim::k1);
  if (rb.in_exterior) m.Set(Part::kBoundary, Part::kExterior, Dim::k1);
  if (sb.in_interior) m.Set(Part::kInterior, Part::kBoundary, Dim::k1);
  if (sb.in_exterior) m.Set(Part::kExterior, Part::kBoundary, Dim::k1);
  if (rb.on_boundary || sb.on_boundary) {
    m.Set(Part::kBoundary, Part::kBoundary, Dim::k1);
  } else if (arr.boundaries_touch) {
    m.Set(Part::kBoundary, Part::kBoundary, Dim::k0);
  }

  bool ii = rb.in_interior || sb.in_interior;
  if (!ii) {
    const Point* pr = r.InteriorPoint();
    if (pr != nullptr && s.LocateIn(*pr) == Location::kInterior) {
      ii = true;
    }
  }
  if (!ii) {
    const Point* ps = s.InteriorPoint();
    if (ps != nullptr && r.LocateIn(*ps) == Location::kInterior) {
      ii = true;
    }
  }
  if (ii) m.Set(Part::kInterior, Part::kInterior, Dim::k2);

  bool ie = rb.in_exterior || sb.in_interior;
  if (!ie) {
    const Point* pr = r.InteriorPoint();
    if (pr != nullptr && s.LocateIn(*pr) == Location::kExterior) {
      ie = true;
    }
  }
  if (ie) m.Set(Part::kInterior, Part::kExterior, Dim::k2);

  bool ei = sb.in_exterior || rb.in_interior;
  if (!ei) {
    const Point* ps = s.InteriorPoint();
    if (ps != nullptr && r.LocateIn(*ps) == Location::kExterior) {
      ei = true;
    }
  }
  if (ei) m.Set(Part::kExterior, Part::kInterior, Dim::k2);
  return m;
}

// ------------------------------------------------------------ differential

// Relates a and b, each through its indexed PreparedPolygon or through a
// new bare one: a bare side may index itself during a relate
// (PreparedPolygon::kIndexAfterScans), so none is reused.
Matrix RelateWith(const PreparedPolygon& a, bool a_bare,
                  const PreparedPolygon& b, bool b_bare) {
  const PreparedPolygon new_a(a.Geometry());
  const PreparedPolygon new_b(b.Geometry());
  return RelateEngine::Relate(a_bare ? new_a : a, b_bare ? new_b : b);
}

// Relates (r, s) and (s, r) with every side indexed or bare — eight
// matrices — and returns how many differ from `expected` or its
// transpose, reporting each.
int CountMismatches(const Polygon& r, const Polygon& s, const Matrix& expected,
                    const std::string& label) {
  const PreparedPolygon r_indexed(r);
  const PreparedPolygon s_indexed(s);
  r_indexed.Warm();
  s_indexed.Warm();
  int mismatches = 0;
  for (const bool r_bare : {false, true}) {
    for (const bool s_bare : {false, true}) {
      const std::string backends = std::string(r_bare ? "bare" : "index") +
                                   "/" + (s_bare ? "bare" : "index");
      const Matrix forward = RelateWith(r_indexed, r_bare, s_indexed, s_bare);
      const Matrix converse = RelateWith(s_indexed, s_bare, r_indexed, r_bare);
      if (forward != expected) {
        ++mismatches;
        ADD_FAILURE() << label << " " << backends << ": "
                      << forward.ToString() << " != " << expected.ToString();
      }
      if (converse != expected.Transposed()) {
        ++mismatches;
        ADD_FAILURE() << label << " " << backends << " swapped: "
                      << converse.ToString()
                      << " != " << expected.Transposed().ToString();
      }
    }
  }
  return mismatches;
}

// As above, against the oracle's matrix.
int CountMismatches(const Polygon& r, const Polygon& s,
                    const std::string& label) {
  return CountMismatches(
      r, s, OracleRelate(OraclePolygon(r), OraclePolygon(s)), label);
}

class WindowedRelate : public ::testing::TestWithParam<std::string> {};

TEST_P(WindowedRelate, AllBackEndsMatchWholeBoundaryOracle) {
  ScenarioOptions options;
  options.scale = 0.05;
  const ScenarioData scenario = BuildScenario(GetParam(), options);
  ASSERT_FALSE(scenario.candidates.empty());
  int mismatches = 0;
  for (const CandidatePair& pair : scenario.candidates) {
    mismatches += CountMismatches(
        scenario.r.objects[pair.r_idx].geometry,
        scenario.s.objects[pair.s_idx].geometry,
        GetParam() + " (" + std::to_string(pair.r_idx) + ", " +
            std::to_string(pair.s_idx) + ")");
  }
  std::printf("[ WindowedRelate ] %s: %zu pairs x 8 back-end "
              "combinations, %d mismatches\n",
              GetParam().c_str(), scenario.candidates.size(), mismatches);
  EXPECT_EQ(mismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, WindowedRelate,
                         ::testing::ValuesIn(ScenarioNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(WindowedRelateShapes, FixtureShapesMatchWholeBoundaryOracle) {
  // Hand-made cases around the window: a small square deep inside a large
  // one (W holds no edge of the large one, so a point located against it
  // needs every edge the +x ray crosses), inside a hole, filling a hole,
  // straddling a hole, sharing an edge, and touching at a corner; and a
  // bar across a comb's teeth, which cuts each into many pieces, so a bare
  // side indexes itself partway through the relate.
  const Polygon shapes[] = {
      test::Square(0, 0, 10, 10),
      test::Square(4, 4, 5, 5),
      test::Square(9, 4, 10, 5),
      test::Square(10, 10, 12, 12),
      test::SquareWithHole(0, 0, 10, 10, 3),
      test::Square(2, 2, 8, 8),
      test::Square(4.5, 4.5, 5.5, 5.5),
      test::Square(1, 4.5, 9, 5.5),
      test::Triangle(Point{0, 0}, Point{10, 0}, Point{5, 10}),
      test::Comb(40),
      test::Square(-1, 5, 81, 6)};
  int mismatches = 0;
  for (size_t i = 0; i < std::size(shapes); ++i) {
    for (size_t j = 0; j < std::size(shapes); ++j) {
      mismatches += CountMismatches(
          shapes[i], shapes[j],
          "shapes " + std::to_string(i) + "," + std::to_string(j));
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(WindowedRelateShapes, HoleLeavingItsShellGivesOneMatrixOnEveryBackEnd) {
  // An invalid polygon whose hole crosses its shell has edges outside its
  // own MBR. Here r's hole edge (9,2)-(14,2) meets the window [8,10]x[0,6]
  // and crosses s's edge x = 12 at (12,2), outside the window; s's edge
  // misses the window, so no back end may pair the two. The answer for
  // invalid input need not be the whole-boundary oracle's, but it must not
  // depend on which sides are indexed.
  const Polygon r(
      Ring({Point{0, 0}, Point{10, 0}, Point{10, 10}, Point{0, 10}}),
      {Ring({Point{9, 2}, Point{14, 2}, Point{14, 4}, Point{9, 4}})});
  const Polygon s(
      Ring({Point{12, 6}, Point{8, 6}, Point{8, 0}, Point{12, 0}}));
  const PreparedPolygon bare_r(r);
  const PreparedPolygon bare_s(s);
  const Matrix expected = RelateEngine::Relate(bare_r, bare_s);
  EXPECT_EQ(CountMismatches(r, s, expected, "hole leaving its shell"), 0);
}

}  // namespace
}  // namespace stj::de9im
