#include "src/de9im/boundary_arrangement.h"

#include <gtest/gtest.h>

#include "src/geometry/point_in_polygon.h"
#include "src/geometry/prepared_polygon.h"
#include "tests/test_support.h"

namespace stj::de9im {
namespace {

using test::Square;
using test::Triangle;

TEST(BoundaryArrangement, DisjointPolygonsKeepWholeEdges) {
  const Polygon a = Square(0, 0, 1, 1);
  const Polygon b = Square(5, 5, 6, 6);
  const Arrangement arr = ComputeArrangement(a, b);
  EXPECT_FALSE(arr.boundaries_touch);
  EXPECT_FALSE(arr.r.has_shared_piece);
  EXPECT_FALSE(arr.s.has_shared_piece);
  // The MBRs are disjoint, so the window is empty: every edge is outside it
  // and stays whole, unsplit and unlocated.
  EXPECT_EQ(arr.r.midpoints.size(), 0u);
  EXPECT_EQ(arr.s.midpoints.size(), 0u);
  EXPECT_TRUE(arr.r.outside_window);
  EXPECT_TRUE(arr.s.outside_window);
}

TEST(BoundaryArrangement, ProperCrossingSplitsEdges) {
  // Overlapping squares: each boundary crosses the other twice.
  const Polygon a = Square(0, 0, 2, 2);
  const Polygon b = Square(1, 1, 3, 3);
  const Arrangement arr = ComputeArrangement(a, b);
  EXPECT_TRUE(arr.boundaries_touch);
  EXPECT_FALSE(arr.r.has_shared_piece);
  // The window is [1,2]^2: two edges of each square meet it and split once
  // each (2 + 2 midpoints); the other two are outside it.
  EXPECT_EQ(arr.r.midpoints.size(), 4u);
  EXPECT_EQ(arr.s.midpoints.size(), 4u);
  EXPECT_TRUE(arr.r.outside_window);
  EXPECT_TRUE(arr.s.outside_window);
}

TEST(BoundaryArrangement, SharedEdgeIsDetectedCombinatorially) {
  const Polygon a = Square(0, 0, 1, 1);
  const Polygon b = Square(1, 0, 2, 1);  // shares the x=1 edge
  const Arrangement arr = ComputeArrangement(a, b);
  EXPECT_TRUE(arr.boundaries_touch);
  EXPECT_TRUE(arr.r.has_shared_piece);
  EXPECT_TRUE(arr.s.has_shared_piece);
  // The window is the shared edge x=1. The shared edge produces no
  // midpoint (it is classified as boundary directly); the two edges that
  // touch its ends produce one midpoint each, and the far edge is outside.
  EXPECT_EQ(arr.r.midpoints.size(), 2u);
  EXPECT_EQ(arr.s.midpoints.size(), 2u);
  EXPECT_TRUE(arr.r.outside_window);
  EXPECT_TRUE(arr.s.outside_window);
}

TEST(BoundaryArrangement, PartialEdgeOverlapSplitsAroundSharedPiece) {
  // a's right edge [x=2, y in 0..2]; b's left edge [x=2, y in 1..3]:
  // shared piece y in [1,2].
  const Polygon a = Square(0, 0, 2, 2);
  const Polygon b = Square(2, 1, 4, 3);
  const Arrangement arr = ComputeArrangement(a, b);
  EXPECT_TRUE(arr.r.has_shared_piece);
  EXPECT_TRUE(arr.s.has_shared_piece);
  // The window is x=2, y in [1,2]. a: its top edge stays whole and its
  // right edge keeps one shared-free piece, y in [0,1]; the bottom and left
  // edges are outside. b likewise: its bottom edge and the y in [2,3] piece
  // of its left edge.
  EXPECT_EQ(arr.r.midpoints.size(), 2u);
  EXPECT_EQ(arr.s.midpoints.size(), 2u);
  EXPECT_TRUE(arr.r.outside_window);
  EXPECT_TRUE(arr.s.outside_window);
  // All midpoints must be off the other polygon's boundary in exact terms.
  for (const Point& mid : arr.r.midpoints) {
    EXPECT_NE(Locate(mid, b), Location::kBoundary);
  }
}

TEST(BoundaryArrangement, IdenticalPolygonsHaveOnlySharedPieces) {
  const Polygon square = Square(0, 0, 3, 3);
  const Arrangement arr = ComputeArrangement(square, square);
  EXPECT_TRUE(arr.boundaries_touch);
  EXPECT_TRUE(arr.r.has_shared_piece);
  EXPECT_TRUE(arr.s.has_shared_piece);
  EXPECT_TRUE(arr.r.midpoints.empty());
  EXPECT_TRUE(arr.s.midpoints.empty());
  EXPECT_FALSE(arr.r.outside_window);
  EXPECT_FALSE(arr.s.outside_window);
}

TEST(BoundaryArrangement, VertexTouchRecordsNoSplitInteriorToEdges) {
  // Triangles sharing a single vertex.
  const Polygon a = Triangle(Point{0, 0}, Point{2, 0}, Point{1, 1});
  const Polygon b = Triangle(Point{1, 1}, Point{0, 2}, Point{2, 2});
  const Arrangement arr = ComputeArrangement(a, b);
  EXPECT_TRUE(arr.boundaries_touch);
  EXPECT_FALSE(arr.r.has_shared_piece);
  // The touch is at existing vertices: edges stay whole. The window is the
  // line y=1, which the two edges at the shared vertex meet and the third
  // edge of each triangle misses.
  EXPECT_EQ(arr.r.midpoints.size(), 2u);
  EXPECT_EQ(arr.s.midpoints.size(), 2u);
  EXPECT_TRUE(arr.r.outside_window);
  EXPECT_TRUE(arr.s.outside_window);
}

TEST(BoundaryArrangement, TJunctionSplitsTheThroughEdge) {
  // b's corner (1,0) lies in the middle of a's bottom edge.
  const Polygon a = Square(0, 0, 2, 2);
  const Polygon b = Triangle(Point{1, 0}, Point{3, -2}, Point{3, 0});
  const Arrangement arr = ComputeArrangement(a, b);
  EXPECT_TRUE(arr.boundaries_touch);
  // a's bottom edge splits at x=1... but (2,0)-(3,0) of b also overlaps? No:
  // b's top edge runs from (3,0) to (1,0): collinear with a's bottom edge
  // y=0 for x in [1,2] -> shared piece!
  EXPECT_TRUE(arr.r.has_shared_piece);
  EXPECT_TRUE(arr.s.has_shared_piece);
}

TEST(BoundaryArrangement, WindowHoldingWholePolygonHasNoOutsideEdge) {
  // b lies inside a's MBR, so every edge of b is windowed; a's edges all
  // miss the window [1,2]^2.
  const Polygon a = Square(0, 0, 4, 4);
  const Polygon b = Square(1, 1, 2, 2);
  const Arrangement arr = ComputeArrangement(a, b);
  EXPECT_FALSE(arr.boundaries_touch);
  EXPECT_TRUE(arr.r.midpoints.empty());
  EXPECT_TRUE(arr.r.outside_window);
  EXPECT_EQ(arr.s.midpoints.size(), 4u);
  EXPECT_FALSE(arr.s.outside_window);
}

TEST(BoundaryArrangement, BackEndsGiveIdenticalArrangements) {
  // Indexed or bare, on either side: the same midpoints in the same order
  // and the same flags, because cuts are ordered by (parameter, point) and
  // not by the order the back end discovers them in. The last two shapes
  // are an invalid polygon whose hole leaves its shell and a square whose
  // edge x = 12 crosses that hole outside their window: an indexed side's
  // probe must skip such an edge, as the bare nested loop does.
  const Polygon shapes[] = {
      Square(0, 0, 2, 2), Square(1, 1, 3, 3), Square(1, 0, 2, 2),
      test::SquareWithHole(0, 0, 6, 6, 2),
      Triangle(Point{0, 0}, Point{6, 0}, Point{3, 5}),
      Triangle(Point{1, 0}, Point{3, -2}, Point{3, 0}),
      Polygon(Ring({Point{0, 0}, Point{10, 0}, Point{10, 10}, Point{0, 10}}),
              {Ring({Point{9, 2}, Point{14, 2}, Point{14, 4}, Point{9, 4}})}),
      Polygon(Ring({Point{12, 6}, Point{8, 6}, Point{8, 0}, Point{12, 0}}))};
  for (const Polygon& a : shapes) {
    for (const Polygon& b : shapes) {
      const Arrangement bare = ComputeArrangement(a, b);
      for (const bool a_indexed : {false, true}) {
        for (const bool b_indexed : {false, true}) {
          const PreparedPolygon pa(a);
          const PreparedPolygon pb(b);
          if (a_indexed) pa.Warm();
          if (b_indexed) pb.Warm();
          const Arrangement arr = ComputeArrangement(pa, pb);
          EXPECT_EQ(arr.r.midpoints, bare.r.midpoints);
          EXPECT_EQ(arr.s.midpoints, bare.s.midpoints);
          EXPECT_EQ(arr.r.has_shared_piece, bare.r.has_shared_piece);
          EXPECT_EQ(arr.s.has_shared_piece, bare.s.has_shared_piece);
          EXPECT_EQ(arr.r.outside_window, bare.r.outside_window);
          EXPECT_EQ(arr.s.outside_window, bare.s.outside_window);
          EXPECT_EQ(arr.boundaries_touch, bare.boundaries_touch);
        }
      }
    }
  }
}

TEST(BoundaryArrangement, MidpointsClassifyCleanly) {
  // Every reported midpoint must locate strictly interior or exterior to
  // the other polygon (the invariant the relate engine depends on).
  const Polygon shapes[] = {
      Square(0, 0, 2, 2), Square(1, 1, 3, 3), Square(1, 0, 2, 2),
      test::SquareWithHole(0, 0, 6, 6, 2),
      Triangle(Point{0, 0}, Point{6, 0}, Point{3, 5})};
  for (const Polygon& a : shapes) {
    for (const Polygon& b : shapes) {
      const Arrangement arr = ComputeArrangement(a, b);
      for (const Point& mid : arr.r.midpoints) {
        EXPECT_NE(Locate(mid, b), Location::kBoundary);
      }
      for (const Point& mid : arr.s.midpoints) {
        EXPECT_NE(Locate(mid, a), Location::kBoundary);
      }
    }
  }
}

}  // namespace
}  // namespace stj::de9im
