#pragma once

#include <string>
#include <string_view>

#include "src/geometry/point.h"
#include "src/geometry/polygon.h"
#include "src/util/status.h"

namespace stj {

/// The coordinate domain: a parsed coordinate is zero or has a magnitude in
/// [min, max]. Within it, a difference of two coordinates is zero, at most
/// 2e100, or at least about 1e-116, so the exact predicates' products and
/// error tails stay normal doubles and a raster grid's width stays finite.
/// Anything else (including nan and inf) is a parse error.
struct CoordinateMagnitude {
  double min;
  double max;
};
inline constexpr CoordinateMagnitude kCoordinateMagnitude{1e-100, 1e100};

/// Serialises \p p as "POINT (x y)".
std::string ToWkt(const Point& p);

/// Serialises \p poly as "POLYGON ((x y, ...), (hole...), ...)" with rings
/// explicitly closed (first vertex repeated last), as OGC WKT requires.
std::string ToWkt(const Polygon& poly);

/// Parses a WKT POINT. On malformed input, or a coordinate outside
/// kCoordinateMagnitude, the Status pinpoints the problem with a message and
/// the 0-based byte offset into \p wkt.
Result<Point> ParseWktPoint(std::string_view wkt);

/// Parses a WKT POLYGON (outer ring plus optional holes). Accepts both closed
/// and unclosed rings. On malformed input, or a coordinate outside
/// kCoordinateMagnitude, the Status pinpoints the problem with a message and
/// the 0-based byte offset into \p wkt.
Result<Polygon> ParseWktPolygon(std::string_view wkt);

}  // namespace stj
