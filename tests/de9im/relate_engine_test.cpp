#include "src/de9im/relate_engine.h"

#include <gtest/gtest.h>

#include "tests/test_support.h"

namespace stj::de9im {
namespace {

using test::Square;
using test::SquareWithHole;
using test::Triangle;

TEST(RelateEngine, DisjointPolygons) {
  const Matrix m = RelateMatrix(Square(0, 0, 1, 1), Square(5, 5, 6, 6));
  EXPECT_EQ(m.ToString(), "FF2FF1212");
  EXPECT_EQ(MostSpecificRelation(m), Relation::kDisjoint);
}

TEST(RelateEngine, DisjointWithOverlappingMbrs) {
  // Two thin diagonal triangles whose MBRs overlap but geometries do not.
  const Polygon a = Triangle(Point{0, 0}, Point{10, 0}, Point{0, 1});
  const Polygon b = Triangle(Point{10, 10}, Point{10, 9}, Point{1, 10});
  EXPECT_EQ(FindRelationExact(a, b), Relation::kDisjoint);
}

TEST(RelateEngine, EqualPolygons) {
  const Polygon square = Square(0, 0, 4, 4);
  const Matrix m = RelateMatrix(square, square);
  EXPECT_EQ(m.ToString(), "2FFF1FFF2");
  EXPECT_EQ(MostSpecificRelation(m), Relation::kEquals);
}

TEST(RelateEngine, EqualPolygonsWithHoles) {
  const Polygon donut = SquareWithHole(0, 0, 4, 4, 1);
  EXPECT_EQ(FindRelationExact(donut, donut), Relation::kEquals);
}

TEST(RelateEngine, StrictInsideAndContains) {
  const Polygon inner = Square(1, 1, 2, 2);
  const Polygon outer = Square(0, 0, 4, 4);
  EXPECT_EQ(RelateMatrix(inner, outer).ToString(), "2FF1FF212");
  EXPECT_EQ(FindRelationExact(inner, outer), Relation::kInside);
  EXPECT_EQ(FindRelationExact(outer, inner), Relation::kContains);
}

TEST(RelateEngine, CoveredByWithSharedEdge) {
  // Inner square sharing the bottom edge segment of the outer square.
  const Polygon inner = Square(1, 0, 2, 2);
  const Polygon outer = Square(0, 0, 4, 4);
  const Matrix m = RelateMatrix(inner, outer);
  EXPECT_EQ(MostSpecificRelation(m), Relation::kCoveredBy);
  EXPECT_EQ(FindRelationExact(outer, inner), Relation::kCovers);
  // Boundary/boundary must be dimension 1 (collinear shared piece).
  EXPECT_EQ(m.At(Part::kBoundary, Part::kBoundary), Dim::k1);
}

TEST(RelateEngine, CoveredByWithSingleBoundaryPoint) {
  // Inner triangle touching the outer boundary at exactly one vertex.
  const Polygon inner = Triangle(Point{1, 1}, Point{4, 2}, Point{1, 3});
  const Polygon outer = Square(0, 0, 4, 4);
  const Matrix m = RelateMatrix(inner, outer);
  EXPECT_EQ(m.At(Part::kBoundary, Part::kBoundary), Dim::k0);
  EXPECT_EQ(MostSpecificRelation(m), Relation::kCoveredBy);
}

TEST(RelateEngine, MeetsAtSinglePoint) {
  // Two squares sharing exactly one corner.
  const Matrix m = RelateMatrix(Square(0, 0, 1, 1), Square(1, 1, 2, 2));
  EXPECT_EQ(m.ToString(), "FF2F01212");
  EXPECT_EQ(MostSpecificRelation(m), Relation::kMeets);
}

TEST(RelateEngine, MeetsAlongSharedEdge) {
  const Matrix m = RelateMatrix(Square(0, 0, 1, 1), Square(1, 0, 2, 1));
  EXPECT_EQ(m.At(Part::kBoundary, Part::kBoundary), Dim::k1);
  EXPECT_EQ(m.At(Part::kInterior, Part::kInterior), Dim::kFalse);
  EXPECT_EQ(MostSpecificRelation(m), Relation::kMeets);
}

TEST(RelateEngine, MeetsAlongPartialEdgeOverlap) {
  // Edges overlap for only part of their length.
  const Matrix m = RelateMatrix(Square(0, 0, 2, 1), Square(1, 1, 3, 2));
  EXPECT_EQ(m.At(Part::kBoundary, Part::kBoundary), Dim::k1);
  EXPECT_EQ(MostSpecificRelation(m), Relation::kMeets);
}

TEST(RelateEngine, OverlappingSquares) {
  const Matrix m = RelateMatrix(Square(0, 0, 2, 2), Square(1, 1, 3, 3));
  EXPECT_EQ(m.ToString(), "212101212");
  EXPECT_EQ(MostSpecificRelation(m), Relation::kIntersects);
}

TEST(RelateEngine, CrossingBars) {
  // A horizontal and a vertical bar forming a plus: interiors overlap, each
  // boundary passes through the other's interior and exterior.
  const Matrix m = RelateMatrix(Square(-3, -1, 3, 1), Square(-1, -3, 1, 3));
  EXPECT_EQ(MostSpecificRelation(m), Relation::kIntersects);
  EXPECT_EQ(m.At(Part::kInterior, Part::kInterior), Dim::k2);
  EXPECT_EQ(m.At(Part::kBoundary, Part::kBoundary), Dim::k0);
}

TEST(RelateEngine, PolygonInsideHoleIsDisjointLike) {
  // A small square inside the hole of a donut: interiors disjoint, no
  // boundary contact.
  const Polygon donut = SquareWithHole(0, 0, 6, 6, 2);  // hole [1,5]^2
  const Polygon small = Square(2.5, 2.5, 3.5, 3.5);
  const Matrix m = RelateMatrix(small, donut);
  EXPECT_EQ(MostSpecificRelation(m), Relation::kDisjoint);
}

TEST(RelateEngine, PolygonFillingHoleExactlyMeets) {
  // The filling polygon's boundary equals the donut's hole ring: meets with
  // dimension-1 boundary intersection.
  const Polygon donut = SquareWithHole(0, 0, 6, 6, 2);
  const Polygon filler = Square(1, 1, 5, 5);  // hole is [1,5]^2 for hw=2
  const Matrix m = RelateMatrix(filler, donut);
  EXPECT_EQ(m.At(Part::kBoundary, Part::kBoundary), Dim::k1);
  EXPECT_EQ(m.At(Part::kInterior, Part::kInterior), Dim::kFalse);
  EXPECT_EQ(MostSpecificRelation(m), Relation::kMeets);
}

TEST(RelateEngine, DonutCoveredByFilledVersion) {
  const Polygon donut = SquareWithHole(0, 0, 6, 6, 2);
  const Polygon filled = Square(0, 0, 6, 6);
  EXPECT_EQ(FindRelationExact(donut, filled), Relation::kCoveredBy);
  EXPECT_EQ(FindRelationExact(filled, donut), Relation::kCovers);
  // The hole interior of the donut belongs to its exterior, which meets the
  // filled polygon's interior.
  EXPECT_EQ(RelateMatrix(donut, filled).At(Part::kExterior, Part::kInterior),
            Dim::k2);
}

TEST(RelateEngine, PolygonStraddlingHoleAndBody) {
  // A bar crossing from the donut body, over the hole, to the body again.
  const Polygon donut = SquareWithHole(0, 0, 6, 6, 2);
  const Polygon bar = Square(0.5, 2.5, 5.5, 3.5);
  const Matrix m = RelateMatrix(bar, donut);
  EXPECT_EQ(MostSpecificRelation(m), Relation::kIntersects);
  // Part of the bar's interior is inside the hole (donut's exterior).
  EXPECT_EQ(m.At(Part::kInterior, Part::kExterior), Dim::k2);
}

TEST(RelateEngine, SymmetryUnderTranspose) {
  const Polygon shapes[] = {
      Square(0, 0, 2, 2), Square(1, 1, 3, 3), Square(1, 0, 2, 2),
      SquareWithHole(0, 0, 6, 6, 2), Triangle(Point{0, 0}, Point{2, 0},
                                              Point{1, 5})};
  for (const Polygon& a : shapes) {
    for (const Polygon& b : shapes) {
      EXPECT_EQ(RelateMatrix(a, b).ToString(),
                RelateMatrix(b, a).Transposed().ToString());
    }
  }
}

TEST(RelateEngine, TouchingAtVertexOfBoth) {
  // Triangles sharing one vertex, otherwise disjoint.
  const Polygon a = Triangle(Point{0, 0}, Point{2, 0}, Point{1, 1});
  const Polygon b = Triangle(Point{1, 1}, Point{0, 2}, Point{2, 2});
  const Matrix m = RelateMatrix(a, b);
  EXPECT_EQ(MostSpecificRelation(m), Relation::kMeets);
  EXPECT_EQ(m.At(Part::kBoundary, Part::kBoundary), Dim::k0);
}

TEST(RelateEngine, EdgeThroughVertexCrossing) {
  // b's boundary passes exactly through a vertex of a while crossing.
  const Polygon a = Triangle(Point{0, 0}, Point{4, 0}, Point{2, 2});
  const Polygon b = Square(1, -1, 3, 1);  // top edge passes through (2, 1)?
  const Matrix m = RelateMatrix(a, b);
  EXPECT_EQ(MostSpecificRelation(m), Relation::kIntersects);
}

}  // namespace
}  // namespace stj::de9im
