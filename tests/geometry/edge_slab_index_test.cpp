#include "src/geometry/edge_slab_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/util/rng.h"
#include "tests/test_support.h"

namespace stj {
namespace {

TEST(EdgeSlabIndexLocate, MatchesPlainLocateOnFixtures) {
  const Polygon poly = test::SquareWithHole(0, 0, 4, 4, 1);
  const EdgeSlabIndex index(poly);
  const Point probes[] = {{0.5, 0.5}, {2, 2},  {1, 2},   {0, 0},
                          {9, 9},     {4, 2},  {2, 3.5}, {3.99, 3.99},
                          {-1, 2},    {2, -1}};
  for (const Point& p : probes) {
    EXPECT_EQ(index.Locate(p), Locate(p, poly)) << p.x << "," << p.y;
  }
}

TEST(EdgeSlabIndexLocate, PropertyAgreesWithPlainLocate) {
  Rng rng(41);
  for (int round = 0; round < 30; ++round) {
    const Polygon blob = test::RandomBlob(
        &rng, Point{rng.Uniform(0, 10), rng.Uniform(0, 10)},
        rng.LogUniform(0.5, 3.0), static_cast<size_t>(rng.UniformInt(8, 300)),
        /*hole_probability=*/0.3);
    const EdgeSlabIndex index(blob);
    const Box probe_area = blob.Bounds().Inflated(0.5);
    for (int i = 0; i < 200; ++i) {
      const Point p{rng.Uniform(probe_area.min.x, probe_area.max.x),
                    rng.Uniform(probe_area.min.y, probe_area.max.y)};
      ASSERT_EQ(index.Locate(p), Locate(p, blob))
          << "round " << round << " probe " << i;
    }
    // Vertices are boundary points and stress the slab edges.
    for (size_t v = 0; v < blob.Outer().Size(); v += 7) {
      ASSERT_EQ(index.Locate(blob.Outer()[v]), Location::kBoundary);
    }
  }
}

TEST(EdgeSlabIndexLocate, DegenerateFlatPolygon) {
  // Near-zero height exercises the single-slab fallback.
  const Polygon flat = test::Square(0, 0, 100, 1e-12);
  const EdgeSlabIndex index(flat);
  EXPECT_EQ(index.Locate(Point{50, 1.0}), Location::kExterior);
  EXPECT_EQ(index.Locate(Point{0, 0}), Location::kBoundary);
}

TEST(EdgeSlabIndexLocate, TriangleSmallestCase) {
  const Polygon tri = test::Triangle(Point{0, 0}, Point{4, 0}, Point{2, 3});
  const EdgeSlabIndex index(tri);
  EXPECT_EQ(index.Locate(Point{2, 1}), Location::kInterior);
  EXPECT_EQ(index.Locate(Point{2, 3}), Location::kBoundary);
  EXPECT_EQ(index.Locate(Point{0, 3}), Location::kExterior);
}

// Polygons for the properties below: random blobs with and without holes,
// a comb (many edges spanning most slabs), and a polygon of zero height,
// which gets one slab.
std::vector<Polygon> PropertyPolygons(Rng* rng) {
  std::vector<Polygon> polys;
  for (int i = 0; i < 24; ++i) {
    polys.push_back(test::RandomBlob(
        rng, Point{rng->Uniform(-5, 5), rng->Uniform(-5, 5)},
        rng->LogUniform(0.5, 3.0), static_cast<size_t>(rng->UniformInt(3, 400)),
        /*hole_probability=*/i % 2 == 0 ? 0.8 : 0.0));
  }
  polys.push_back(test::Comb(30));
  polys.push_back(Polygon(Ring({Point{0, 1}, Point{4, 1}, Point{9, 1}})));
  return polys;
}

TEST(EdgeSlabIndex, EdgesAreTheBoundaryInRingOrder) {
  const Polygon poly = test::SquareWithHole(0, 0, 4, 4, 1);
  std::vector<Segment> want;
  poly.ForEachEdge([&](const Segment& e) { want.push_back(e); });
  const EdgeSlabIndex index(poly);
  const std::vector<Segment>& got = index.Edges();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].a == want[i].a && got[i].b == want[i].b) << i;
  }
}

TEST(EdgeSlabIndex, ProbeReportsEveryOverlappingEdgeOnce) {
  Rng rng(59);
  int probes = 0;
  for (const Polygon& poly : PropertyPolygons(&rng)) {
    const EdgeSlabIndex index(poly);
    const std::vector<Segment>& edges = index.Edges();
    const Box& b = poly.Bounds();
    const double h = std::max(b.Height(), 1e-9);
    // Ranges inside the bounds, below, above, straddling either end,
    // covering them, and degenerate (one y).
    std::vector<std::pair<double, double>> ranges = {
        {b.min.y - 2 * h, b.min.y - h}, {b.max.y + h, b.max.y + 2 * h},
        {b.min.y - h, b.min.y + h / 3}, {b.max.y - h / 3, b.max.y + h},
        {b.min.y - h, b.max.y + h},     {b.min.y, b.min.y},
        {b.max.y, b.max.y}};
    for (int i = 0; i < 40; ++i) {
      const double y0 = rng.Uniform(b.min.y - h / 4, b.max.y + h / 4);
      const double y1 = rng.Bernoulli(0.25) ? y0 : rng.Uniform(y0, y0 + h / 2);
      ranges.emplace_back(y0, y1);
    }
    for (const auto& [ylo, yhi] : ranges) {
      std::vector<int> reported(edges.size(), 0);
      index.Probe(ylo, yhi, [&](uint32_t id) {
        ASSERT_LT(id, edges.size());
        ++reported[id];
      });
      for (size_t id = 0; id < edges.size(); ++id) {
        const Segment& e = edges[id];
        const bool overlaps =
            std::min(e.a.y, e.b.y) <= yhi && std::max(e.a.y, e.b.y) >= ylo;
        ASSERT_LE(reported[id], 1) << "edge " << id << " reported twice";
        if (overlaps) {
          ASSERT_EQ(reported[id], 1)
              << "edge " << id << " misses [" << ylo << ", " << yhi << "]";
        }
      }
      ++probes;
    }
  }
  EXPECT_GT(probes, 1000);
}

TEST(EdgeSlabIndex, LocateEqualsLocateUnindexedOnProbesAndVertices) {
  Rng rng(61);
  for (const Polygon& poly : PropertyPolygons(&rng)) {
    const EdgeSlabIndex index(poly);
    const Box area = poly.Bounds().Inflated(0.25);
    for (int i = 0; i < 300; ++i) {
      const Point p{rng.Uniform(area.min.x, area.max.x),
                    rng.Uniform(area.min.y, area.max.y)};
      ASSERT_EQ(index.Locate(p), LocateUnindexed(poly, p))
          << p.x << "," << p.y;
    }
    for (const Segment& e : index.Edges()) {
      ASSERT_EQ(index.Locate(e.a), LocateUnindexed(poly, e.a));
      ASSERT_EQ(index.Locate(e.Mid()), LocateUnindexed(poly, e.Mid()));
    }
  }
}

}  // namespace
}  // namespace stj
