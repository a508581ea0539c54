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

/// The MBR part of the relate_p filter, the early exits of every Fig. 6 flow:
/// kNo when no candidate relation of the MBR case makes p hold
/// (!RelateFeasible), kYes when every one does (RelateCertain), else
/// kInconclusive. Only an inconclusive pair reads interval lists, so this
/// is also the rule that says which approximations a P+C relate_p join
/// needs (FilterDemandOf in pipeline.h).
RelateAnswer RelateFromMbrs(de9im::Relation p, const Box& r_mbr,
                            const Box& s_mbr);

/// Runs the predicate-specific MBR + interval-list filter for p on one pair,
/// without touching exact geometry: RelateFromMbrs first, then the lists. Implements the three flow diagrams of
/// Fig. 6 (inside/covered-by, meets, equals), their mirror images for
/// contains/covers, and the APRIL-style tests for intersects/disjoint.
RelateAnswer RelatePredicateFilter(de9im::Relation p, const Box& r_mbr,
                                   const AprilView& r_april,
                                   const Box& s_mbr,
                                   const AprilView& s_april);

const char* ToString(RelateAnswer answer);

}  // namespace stj
