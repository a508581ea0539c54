#include "src/geometry/wkt.h"

#include <gtest/gtest.h>

#include <string>

#include "src/util/rng.h"
#include "tests/test_support.h"

namespace stj {
namespace {

TEST(Wkt, PointRoundTrip) {
  const Point p{1.5, -2.25};
  const auto parsed = ParseWktPoint(ToWkt(p));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, p);
}

TEST(Wkt, PolygonRoundTripPreservesEverything) {
  const Polygon poly = test::SquareWithHole(0, 0, 4, 4, 1);
  const auto parsed = ParseWktPolygon(ToWkt(poly));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Outer(), poly.Outer());
  ASSERT_EQ(parsed->Holes().size(), 1u);
  EXPECT_EQ(parsed->Holes()[0], poly.Holes()[0]);
}

TEST(Wkt, RoundTripIsExactForRandomCoordinates) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const Polygon blob =
        test::RandomBlob(&rng, Point{rng.Uniform(-100, 100),
                                     rng.Uniform(-100, 100)},
                         rng.LogUniform(0.001, 100.0), 24);
    const auto parsed = ParseWktPolygon(ToWkt(blob));
    ASSERT_TRUE(parsed.has_value());
    // %.17g printing is lossless for doubles.
    EXPECT_EQ(parsed->Outer(), blob.Outer());
  }
}

TEST(Wkt, ParsesUnclosedAndClosedRings) {
  const auto closed =
      ParseWktPolygon("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))");
  const auto unclosed = ParseWktPolygon("POLYGON ((0 0, 1 0, 1 1, 0 1))");
  ASSERT_TRUE(closed.has_value());
  ASSERT_TRUE(unclosed.has_value());
  EXPECT_EQ(closed->Outer(), unclosed->Outer());
  EXPECT_EQ(closed->Outer().Size(), 4u);
}

TEST(Wkt, CaseInsensitiveKeywordAndWhitespace) {
  EXPECT_TRUE(ParseWktPolygon("polygon((0 0,1 0,1 1))").has_value());
  EXPECT_TRUE(ParseWktPolygon("  PoLyGoN ( ( 0 0 , 1 0 , 1 1 ) ) ").has_value());
  EXPECT_TRUE(ParseWktPoint("point(3 4)").has_value());
}

TEST(Wkt, PolygonEmpty) {
  const auto empty = ParseWktPolygon("POLYGON EMPTY");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->Empty());
  EXPECT_EQ(ToWkt(Polygon{}), "POLYGON EMPTY");
}

TEST(Wkt, RejectsMalformedInput) {
  EXPECT_FALSE(ParseWktPolygon("POLYGON ((0 0, 1 0, 1 1)").has_value());
  EXPECT_FALSE(ParseWktPolygon("POLYGON (0 0, 1 0, 1 1)").has_value());
  EXPECT_FALSE(ParseWktPolygon("POLYGON ((0 zero, 1 0, 1 1))").has_value());
  EXPECT_FALSE(ParseWktPolygon("LINESTRING (0 0, 1 1)").has_value());
  EXPECT_FALSE(ParseWktPolygon("POLYGON ((0 0, 1 0, 1 1)) extra").has_value());
  EXPECT_FALSE(ParseWktPoint("POINT ()").has_value());
}

TEST(Wkt, RejectsNonFiniteCoordinates) {
  // std::from_chars reads all of these; a coordinate must be finite, and
  // zero or of a magnitude within kCoordinateMagnitude. The Status points at
  // the token's first byte.
  for (const std::string bad :
       {"nan", "-nan", "NaN", "inf", "-inf", "INF", "infinity",
        "1.7976931348623157e308", "-1.7976931348623157e308", "-1e101",
        "1e-101", "-1e-300", "4.9e-324"}) {
    const std::string in_x = "POINT (" + bad + " 1)";
    const auto point_x = ParseWktPoint(in_x);
    ASSERT_FALSE(point_x.has_value()) << in_x;
    EXPECT_EQ(point_x.status().offset(), 7u) << in_x;
    EXPECT_NE(point_x.status().message().find("x coordinate"),
              std::string::npos)
        << in_x;

    const std::string in_y = "POINT (1 " + bad + ")";
    const auto point_y = ParseWktPoint(in_y);
    ASSERT_FALSE(point_y.has_value()) << in_y;
    EXPECT_EQ(point_y.status().offset(), 9u) << in_y;
    EXPECT_NE(point_y.status().message().find("y coordinate"),
              std::string::npos)
        << in_y;

    const std::string ring_x = "POLYGON ((0 0, " + bad + " 0, 1 1, 0 1))";
    const auto polygon_x = ParseWktPolygon(ring_x);
    ASSERT_FALSE(polygon_x.has_value()) << ring_x;
    EXPECT_EQ(polygon_x.status().offset(), 15u) << ring_x;

    const std::string ring_y = "POLYGON ((0 0, 1 0, 1 1, 0 " + bad + "))";
    const auto polygon_y = ParseWktPolygon(ring_y);
    ASSERT_FALSE(polygon_y.has_value()) << ring_y;
    EXPECT_EQ(polygon_y.status().offset(), 27u) << ring_y;

    const std::string hole = "POLYGON ((0 0, 9 0, 9 9, 0 9), (1 1, 2 1, " +
                             bad + " 2))";
    EXPECT_FALSE(ParseWktPolygon(hole).has_value()) << hole;
  }
  // The domain's own bounds, and zero of either sign, still parse.
  for (const std::string good :
       {"1e100", "-1e100", "1e-100", "-1e-100", "0", "-0"}) {
    EXPECT_TRUE(ParseWktPoint("POINT (" + good + " 1)").has_value()) << good;
    EXPECT_TRUE(ParseWktPoint("POINT (1 " + good + ")").has_value()) << good;
  }
}

}  // namespace
}  // namespace stj
