#include "src/geometry/wkt.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <clocale>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/datasets/scenarios.h"
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

/// "POLYGON(( 0 0, 1 0, 1 1), (0.2 0.2, 0.4 0.2, 0.4 0.4))" with \p sep
/// before and after every token, lower-case keyword included.
std::string SpacedPolygon(const std::string& sep) {
  std::string out;
  for (const char* token :
       {"polygon", "(", "(", "0", "0", ",", "1", "0", ",", "1", "1", ")", ",",
        "(", "0.25", "0.25", ",", "0.5", "0.25", ",", "0.5", "0.5", ")",
        ")"}) {
    out += sep;
    out += token;
  }
  return out + sep;
}

TEST(WktScanner, EveryCLocaleWhitespaceByteSeparatesEveryToken) {
  const Polygon want(Ring({Point{0, 0}, Point{1, 0}, Point{1, 1}}),
                     {Ring({Point{0.25, 0.25}, Point{0.5, 0.25},
                            Point{0.5, 0.5}})});
  for (const char space : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    for (const std::string& sep : {std::string(1, space), std::string(3, space)}) {
      const auto parsed = ParseWktPolygon(SpacedPolygon(sep));
      ASSERT_TRUE(parsed.has_value())
          << int(space) << ": " << parsed.status().ToString();
      EXPECT_EQ(parsed->Outer(), want.Outer()) << int(space);
      ASSERT_EQ(parsed->Holes().size(), 1u) << int(space);
      EXPECT_EQ(parsed->Holes()[0], want.Holes()[0]) << int(space);
    }
    const std::string s(1, space);
    EXPECT_TRUE(ParseWktPolygon(s + "Polygon" + s + "Empty" + s).has_value())
        << int(space);
    const auto point = ParseWktPoint(s + "pOiNt" + s + "(" + s + "3" + s + "4" +
                                     s + ")" + s);
    ASSERT_TRUE(point.has_value()) << int(space);
    EXPECT_EQ(*point, (Point{3, 4}));
  }
}

TEST(WktScanner, OtherSpaceBytesFailAtTheirOffsetInEveryLocale) {
  // 0x1C (file separator) and 0xA0 (no-break space in Latin-1) are white
  // space in some locales' isspace, but not in the C locale WKT uses, so a
  // parse must stop on them whatever locale the process set. Locales that
  // are not installed are skipped; the C locale always runs.
  const std::string before = std::setlocale(LC_CTYPE, nullptr);
  for (const char* locale :
       {"C", "C.UTF-8", "en_US.UTF-8", "en_US.ISO-8859-1", "de_DE.ISO-8859-1"}) {
    if (std::setlocale(LC_CTYPE, locale) == nullptr) continue;
    for (const char bad : {'\x1c', '\xa0'}) {
      const std::string text = SpacedPolygon(" ");
      // Insert the byte in every gap between tokens (each ' ').
      for (size_t at = 0; at < text.size(); ++at) {
        if (text[at] != ' ') continue;
        std::string mangled = text;
        mangled[at] = bad;
        const auto parsed = ParseWktPolygon(mangled);
        ASSERT_FALSE(parsed.has_value()) << locale << " byte at " << at;
        EXPECT_EQ(parsed.status().offset(), at) << locale << " " << mangled;
      }
    }
  }
  std::setlocale(LC_CTYPE, before.c_str());
}

TEST(WktScanner, RingsAreExactSizeAfterLargeAndFailedRings) {
  // The parser reads each ring into one scratch vector per thread and gives
  // the ring a copy of exactly its vertices; Ring() then drops an explicit
  // closing vertex, so a ring's capacity is at most its size + 1. A large
  // ring, and one that fails halfway, leave nothing behind in the next.
  const auto expect_tight = [](const Ring& ring) {
    EXPECT_LE(ring.Vertices().capacity(), ring.Size() + 1);
  };
  constexpr size_t kLarge = 100000;
  std::string large = "POLYGON ((";
  for (size_t i = 0; i < kLarge; ++i) {
    large += std::to_string(i) + " " + std::to_string(i % 7) + ", ";
  }
  large += "0 0))";  // closes the ring
  const auto big = ParseWktPolygon(large);
  ASSERT_TRUE(big.has_value()) << big.status().ToString();
  EXPECT_EQ(big->Outer().Size(), kLarge);
  expect_tight(big->Outer());

  std::string failing = "POLYGON ((";
  for (size_t i = 0; i < kLarge / 2; ++i) {
    failing += std::to_string(i) + " 1, ";
  }
  failing += "x 1))";
  const auto failed = ParseWktPolygon(failing);
  ASSERT_FALSE(failed.has_value());
  EXPECT_EQ(failed.status().offset(), failing.size() - 5);

  const auto small =
      ParseWktPolygon("POLYGON ((5 5, 6 5, 6 6), (5.5 5.2, 5.8 5.2, 5.8 5.5, "
                      "5.5 5.2))");
  ASSERT_TRUE(small.has_value());
  EXPECT_EQ(small->Outer().Vertices(),
            (std::vector<Point>{Point{5, 5}, Point{6, 5}, Point{6, 6}}));
  expect_tight(small->Outer());
  ASSERT_EQ(small->Holes().size(), 1u);
  EXPECT_EQ(small->Holes()[0].Size(), 3u);
  expect_tight(small->Holes()[0]);
}

// The writer's oracle: printf's "%.17g", the format ToWkt writes. Call it
// in the C locale only; snprintf follows LC_NUMERIC.
std::string Printf17g(double v) {
  char buf[64];
  const int len = std::snprintf(buf, sizeof buf, "%.17g", v);
  return std::string(buf, static_cast<size_t>(len));
}

std::string OracleRing(const Ring& ring) {
  std::string out = "(";
  for (size_t i = 0; i < ring.Size(); ++i) {
    out += Printf17g(ring[i].x) + " " + Printf17g(ring[i].y) + ", ";
  }
  // The closing vertex repeats the first.
  if (ring.Size() > 0) out += Printf17g(ring[0].x) + " " + Printf17g(ring[0].y);
  return out + ")";
}

std::string OracleWkt(const Polygon& poly) {
  if (poly.Empty()) return "POLYGON EMPTY";
  std::string out = "POLYGON (" + OracleRing(poly.Outer());
  for (const Ring& hole : poly.Holes()) out += ", " + OracleRing(hole);
  return out + ")";
}

/// Whether ToWkt(Point) writes both coordinates as the oracle does.
testing::AssertionResult PointMatchesPrintf(double x, double y) {
  const std::string got = ToWkt(Point{x, y});
  const std::string want = "POINT (" + Printf17g(x) + " " + Printf17g(y) + ")";
  if (got == want) return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << got << " != " << want << " (bits " << std::bit_cast<uint64_t>(x)
         << " " << std::bit_cast<uint64_t>(y) << ")";
}

TEST(WktWriter, SpecialValuesMatchPrintf) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  // Signed zeros and units; %.17g switches between fixed and exponent
  // notation between 1e-5 and 1e-4 and between 1e16 and 1e17 (which the
  // 17-digit 99999999999999999 rounds to); +-1e-100 and +-1e100 are the
  // parser's magnitude bounds.
  const std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1e-5, 1e-4, 1e16, 1e17,
      99999999999999999.0, 1e-100, -1e-100, 1e100, -1e100,
      std::numeric_limits<double>::denorm_min(), DBL_MIN, DBL_MAX, -DBL_MAX,
      kInf, -kInf, kNan, -kNan};
  for (const double x : values) {
    for (const double y : values) ASSERT_TRUE(PointMatchesPrintf(x, y));
  }
  // The longest %.17g double fits the writer's buffer.
  EXPECT_EQ(ToWkt(Point{-DBL_MIN, 1}), "POINT (-2.2250738585072014e-308 1)");
}

TEST(WktWriter, RandomBitPatternsAndUniformValuesMatchPrintf) {
  Rng rng(17);
  for (int i = 0; i < 500000; ++i) {
    ASSERT_TRUE(PointMatchesPrintf(std::bit_cast<double>(rng.NextU64()),
                                   std::bit_cast<double>(rng.NextU64())));
  }
  for (int i = 0; i < 500000; ++i) {
    ASSERT_TRUE(
        PointMatchesPrintf(rng.Uniform(-200, 200), rng.Uniform(-200, 200)));
  }
}

TEST(WktWriter, EveryGeneratedCoordinateMatchesPrintf) {
  for (const std::string& name : DatasetNames()) {
    const Dataset dataset = BuildDataset(name, 0.01, 7);
    ASSERT_FALSE(dataset.objects.empty()) << name;
    for (const SpatialObject& object : dataset.objects) {
      ASSERT_EQ(ToWkt(object.geometry), OracleWkt(object.geometry))
          << name << " object " << object.id;
    }
  }
}

TEST(WktWriter, WholeLinesMatchTheOracleAndTheFormat) {
  const Polygon poly = test::SquareWithHole(0.1, -2.5, 4, 1e-5, 0.25);
  EXPECT_EQ(ToWkt(poly), OracleWkt(poly));
  EXPECT_EQ(ToWkt(Point{1.5, -2.25}), "POINT (1.5 -2.25)");
  EXPECT_EQ(ToWkt(Point{0.1, 1e-5}),
            "POINT (0.10000000000000001 1.0000000000000001e-05)");
  EXPECT_EQ(ToWkt(Point{1e16, -1e100}), "POINT (10000000000000000 -1e+100)");
  EXPECT_EQ(ToWkt(test::SquareWithHole(0, 0, 4, 4, 1)),
            "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), "
            "(1 3, 3 3, 3 1, 1 1, 1 3))");
  EXPECT_EQ(ToWkt(Polygon(Ring({Point{0.5, 0}, Point{1e17, 0},
                                Point{1e17, 2.75}}))),
            "POLYGON ((0.5 0, 1e+17 0, 1e+17 2.75, 0.5 0))");
}

TEST(WktWriter, OutputIsTheSameInEveryLocale) {
  // snprintf follows LC_NUMERIC: under a locale with a decimal comma it
  // writes "12,5 3,25", which the parser rejects. The writer must not
  // follow it. Locales that are not installed are skipped; the C locale
  // always runs.
  const std::string before = std::setlocale(LC_NUMERIC, nullptr);
  std::setlocale(LC_NUMERIC, "C");
  Rng rng(5);
  std::vector<Polygon> polygons = {test::SquareWithHole(0, 0, 12.5, 3.25, 1)};
  for (int i = 0; i < 20; ++i) {
    polygons.push_back(test::RandomBlob(
        &rng, Point{rng.Uniform(-100, 100), rng.Uniform(-100, 100)},
        rng.LogUniform(0.001, 100.0), 16, /*hole_probability=*/0.5));
  }
  std::vector<std::string> want;
  for (const Polygon& poly : polygons) want.push_back(OracleWkt(poly));
  for (const char* locale :
       {"C", "de_DE.UTF-8", "fr_FR.UTF-8", "de_DE.ISO-8859-1"}) {
    if (std::setlocale(LC_NUMERIC, locale) == nullptr) continue;
    for (size_t i = 0; i < polygons.size(); ++i) {
      const std::string got = ToWkt(polygons[i]);
      EXPECT_EQ(got, want[i]) << locale;
      EXPECT_TRUE(ParseWktPolygon(got).has_value()) << locale << ": " << got;
    }
    EXPECT_EQ(ToWkt(Point{12.5, -3.25}), "POINT (12.5 -3.25)") << locale;
  }
  std::setlocale(LC_NUMERIC, before.c_str());
}

}  // namespace
}  // namespace stj
