#pragma once

#include "src/de9im/relation.h"
#include "src/geometry/box.h"
#include "src/raster/april.h"
#include "src/topology/intermediate_filters.h"

namespace stj {

/// Which pipeline stage produced a find-relation answer — the bookkeeping
/// behind the effectiveness plots (Fig. 7(b), Fig. 8(a)).
enum class DecisionStage : uint8_t {
  kMbrFilter,           ///< Decided from the MBRs alone (disjoint or cross).
  kIntermediateFilter,  ///< Decided by merge-joins on the P/C lists.
  kRefinement,          ///< Needed the DE-9IM matrix.
};

/// Result of the raster-only part of find relation (Algorithm 1 before any
/// refinement): either a definite relation, or the narrowed candidate set the
/// refinement step must verify.
struct FilterDecision {
  bool definite = false;
  de9im::Relation relation = de9im::Relation::kIntersects;  ///< When definite.
  de9im::RelationSet candidates;  ///< When not definite.
  DecisionStage stage = DecisionStage::kMbrFilter;
};

/// Runs the MBR filter plus the MBR-case-specific intermediate filter of
/// Algorithm 1 on one pair, without touching exact geometry. The candidate
/// set of a non-definite decision always contains the true relation.
FilterDecision FindRelationFilter(const Box& r_mbr,
                                  const AprilView& r_april,
                                  const Box& s_mbr,
                                  const AprilView& s_april);

}  // namespace stj
