#pragma once

#include <string>

#include "src/geometry/polygon.h"
#include "src/geometry/ring.h"

namespace stj {

/// Result of a geometry validity check.
struct ValidationResult {
  bool valid = true;
  std::string reason;  ///< Empty when valid.

  static ValidationResult Ok() { return ValidationResult{}; }
  static ValidationResult Fail(std::string why) {
    return ValidationResult{false, std::move(why)};
  }
};

/// Checks that \p ring has >= 3 vertices, no zero-length or repeated
/// consecutive edges, nonzero area, and no self-intersection (adjacent edges
/// may share only their common vertex). O(n^2) with bounding-box pruning —
/// intended for data-generation sanity checks and tests, not hot paths.
ValidationResult ValidateRing(const Ring& ring);

/// Checks every ring of \p poly with ValidateRing, that each hole lies inside
/// the outer ring, and that rings do not cross each other.
ValidationResult ValidatePolygon(const Polygon& poly);

/// The O(n) check strict loading applies to every parsed polygon: fails,
/// naming the ring, when the outer ring or a hole encloses zero area (fewer
/// than 3 distinct vertices, or all of them collinear) — the rings
/// RepairPolygon cannot keep.
ValidationResult ValidateRingAreas(const Polygon& poly);

/// Outcome of RepairPolygon.
enum class RepairOutcome : uint8_t {
  kUnchanged,     ///< Already structurally sound; *out is a copy of the input.
  kRepaired,      ///< One or more repairs applied; *out holds the result.
  kUnrepairable,  ///< Outer ring beyond repair; *out untouched.
};

/// Applies the cheap structural repairs permissive ingestion relies on:
/// dedupes repeated consecutive vertices (including the closing wraparound
/// pair), drops holes that degenerate (< 3 distinct vertices or zero area),
/// and renormalises winding via Polygon's constructor. Fails only when the
/// outer ring itself degenerates. When \p what is non-null it receives a
/// short comma-separated list of the repairs applied ("" when unchanged).
///
/// This is O(n) — it does NOT detect self-intersections; run ValidatePolygon
/// afterwards when full validity matters.
RepairOutcome RepairPolygon(const Polygon& poly, Polygon* out,
                            std::string* what = nullptr);

}  // namespace stj
