#pragma once

#include "src/de9im/relation.h"
#include "src/geometry/box.h"
#include "src/raster/april.h"
#include "src/topology/find_relation.h"

namespace stj {

/// Raster-only answer to a relate_p query (Sec. 3.3 / Fig. 6): does the
/// topological predicate p hold for the pair?
enum class RelateAnswer : uint8_t {
  kYes,           ///< p definitely holds.
  kNo,            ///< p definitely does not hold.
  kInconclusive,  ///< Refinement (DE-9IM + mask) required.
};

/// Runs the predicate-specific MBR + interval-list filter for p on one pair,
/// without touching exact geometry. Implements the three flow diagrams of
/// Fig. 6 (inside/covered-by, meets, equals), their mirror images for
/// contains/covers, and the APRIL-style tests for intersects/disjoint.
RelateAnswer RelatePredicateFilter(de9im::Relation p, const Box& r_mbr,
                                   const AprilView& r_april,
                                   const Box& s_mbr,
                                   const AprilView& s_april);

const char* ToString(RelateAnswer answer);

}  // namespace stj
