#pragma once

#include "src/de9im/relation.h"
#include "src/raster/april.h"

namespace stj {

/// Outcome of one of the four intermediate filters of Fig. 5. Either a
/// definite most-specific relation (no refinement needed) or a narrowed
/// candidate set to verify against the DE-9IM matrix.
enum class IFOutcome : uint8_t {
  // Definite outcomes.
  kDisjoint,
  kInside,
  kContains,
  kCoveredBy,
  kCovers,
  kIntersects,
  // Refinement outcomes, named by the candidate set they carry.
  kRefineEquals,                  ///< {equals, covered by, covers, intersects}
  kRefineCoveredBy,               ///< {covered by, intersects}
  kRefineCovers,                  ///< {covers, intersects}
  kRefineInside,                  ///< {inside, covered by, intersects}
  kRefineContains,                ///< {contains, covers, intersects}
  kRefineMeetsIntersects,         ///< {meets, intersects}
  kRefineDisjointMeetsIntersects, ///< {disjoint, meets, intersects}
  kRefineAllInside,   ///< {disjoint, inside, covered by, meets, intersects}
  kRefineAllContains, ///< {disjoint, contains, covers, meets, intersects}
};

/// True when the outcome is a definite relation (left column above).
/// Constexpr (with the two accessors below) so topology/static_checks.cpp
/// can verify every Fig. 5 decision sequence against the Fig. 4 candidate
/// sets at compile time.
constexpr bool IsDefinite(IFOutcome outcome) {
  switch (outcome) {
    case IFOutcome::kDisjoint:
    case IFOutcome::kInside:
    case IFOutcome::kContains:
    case IFOutcome::kCoveredBy:
    case IFOutcome::kCovers:
    case IFOutcome::kIntersects:
      return true;
    default:
      return false;
  }
}

/// The definite relation of a definite outcome.
constexpr de9im::Relation DefiniteRelation(IFOutcome outcome) {
  using de9im::Relation;
  switch (outcome) {
    case IFOutcome::kDisjoint: return Relation::kDisjoint;
    case IFOutcome::kInside: return Relation::kInside;
    case IFOutcome::kContains: return Relation::kContains;
    case IFOutcome::kCoveredBy: return Relation::kCoveredBy;
    case IFOutcome::kCovers: return Relation::kCovers;
    default: return Relation::kIntersects;
  }
}

/// The candidate set a refinement outcome carries (the definite outcomes map
/// to their singleton).
constexpr de9im::RelationSet CandidatesOf(IFOutcome outcome) {
  using de9im::Relation;
  using de9im::RelationSet;
  switch (outcome) {
    case IFOutcome::kDisjoint:
    case IFOutcome::kInside:
    case IFOutcome::kContains:
    case IFOutcome::kCoveredBy:
    case IFOutcome::kCovers:
    case IFOutcome::kIntersects:
      return RelationSet{DefiniteRelation(outcome)};
    case IFOutcome::kRefineEquals:
      return RelationSet{Relation::kEquals, Relation::kCoveredBy,
                         Relation::kCovers, Relation::kIntersects};
    case IFOutcome::kRefineCoveredBy:
      return RelationSet{Relation::kCoveredBy, Relation::kIntersects};
    case IFOutcome::kRefineCovers:
      return RelationSet{Relation::kCovers, Relation::kIntersects};
    case IFOutcome::kRefineInside:
      return RelationSet{Relation::kInside, Relation::kCoveredBy,
                         Relation::kIntersects};
    case IFOutcome::kRefineContains:
      return RelationSet{Relation::kContains, Relation::kCovers,
                         Relation::kIntersects};
    case IFOutcome::kRefineMeetsIntersects:
      return RelationSet{Relation::kMeets, Relation::kIntersects};
    case IFOutcome::kRefineDisjointMeetsIntersects:
      return RelationSet{Relation::kDisjoint, Relation::kMeets,
                         Relation::kIntersects};
    case IFOutcome::kRefineAllInside:
      return RelationSet{Relation::kDisjoint, Relation::kInside,
                         Relation::kCoveredBy, Relation::kMeets,
                         Relation::kIntersects};
    case IFOutcome::kRefineAllContains:
      return RelationSet{Relation::kDisjoint, Relation::kContains,
                         Relation::kCovers, Relation::kMeets,
                         Relation::kIntersects};
  }
  return RelationSet::All();
}

/// The filters read flat AprilViews only: every storage form (vector,
/// AprilStore, or a CompressedAprilStore record decoded through the
/// pipeline's DecodedAprilCache) reaches them as the same flat lists.

/// Intermediate filter for pairs with equal MBRs (Fig. 4(c) / Fig. 5
/// IFEquals). Can definitely decide covered by and covers.
IFOutcome IFEquals(const AprilView& r, const AprilView& s);

/// Intermediate filter for MBR(r) inside MBR(s) (Fig. 4(a) / Fig. 5
/// IFInside). Can definitely decide disjoint, inside, and intersects.
IFOutcome IFInside(const AprilView& r, const AprilView& s);

/// Intermediate filter for MBR(r) containing MBR(s) (Fig. 4(b) / Fig. 5
/// IFContains). Can definitely decide disjoint, contains, and intersects.
IFOutcome IFContains(const AprilView& r, const AprilView& s);

/// Intermediate filter for partially overlapping MBRs (Fig. 4(e) / Fig. 5
/// IFIntersects). Can definitely decide disjoint and intersects.
IFOutcome IFIntersects(const AprilView& r, const AprilView& s);

const char* ToString(IFOutcome outcome);

}  // namespace stj
