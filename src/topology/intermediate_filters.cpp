#include "src/topology/intermediate_filters.h"

#include "src/interval/interval_algebra.h"

namespace stj {

using de9im::Relation;
using de9im::RelationSet;

IFOutcome IFEquals(const AprilView& r, const AprilView& s) {
  // Equal MBRs: the objects certainly intersect (each spans the shared MBR in
  // both axes), so no disjointness checks appear here.
  if (ListsMatch(r.conservative, s.conservative)) {
    return IFOutcome::kRefineEquals;
  }
  if (ListInside(r.conservative, s.conservative)) {
    // r's touched cells all touched by s: r cannot stick out of s.
    if (ListInside(r.conservative, s.progressive)) {
      // r lies within cells fully inside s: r is within s, with r != s
      // (lists differ) and strict inside impossible for equal MBRs.
      return IFOutcome::kCoveredBy;
    }
    return IFOutcome::kRefineCoveredBy;
  }
  if (ListContains(r.conservative, s.conservative)) {
    if (ListContains(r.progressive, s.conservative)) {
      return IFOutcome::kCovers;
    }
    return IFOutcome::kRefineCovers;
  }
  return IFOutcome::kRefineMeetsIntersects;
}

IFOutcome IFInside(const AprilView& r, const AprilView& s) {
  if (ListInside(r.conservative, s.conservative)) {
    if (!s.progressive.Empty()) {
      if (ListInside(r.conservative, s.progressive)) {
        // Every cell r touches lies strictly inside s: no boundary contact.
        return IFOutcome::kInside;
      }
      if (ListsOverlap(r.conservative, s.progressive)) {
        // r reaches s's interior, so the interiors overlap; inside and
        // covered by both remain possible.
        return IFOutcome::kRefineInside;
      }
    }
    return IFOutcome::kRefineAllInside;
  }
  if (!ListsOverlap(r.conservative, s.conservative)) {
    return IFOutcome::kDisjoint;
  }
  // r sticks out of s's touched cells, so containment is off the table; a
  // full-cell overlap in either direction certifies interior overlap.
  if (ListsOverlap(r.conservative, s.progressive) ||
      ListsOverlap(r.progressive, s.conservative)) {
    return IFOutcome::kIntersects;
  }
  return IFOutcome::kRefineDisjointMeetsIntersects;
}

IFOutcome IFContains(const AprilView& r, const AprilView& s) {
  if (ListContains(r.conservative, s.conservative)) {
    if (!r.progressive.Empty()) {
      if (ListContains(r.progressive, s.conservative)) {
        return IFOutcome::kContains;
      }
      if (ListsOverlap(r.progressive, s.conservative)) {
        return IFOutcome::kRefineContains;
      }
    }
    return IFOutcome::kRefineAllContains;
  }
  if (!ListsOverlap(r.conservative, s.conservative)) {
    return IFOutcome::kDisjoint;
  }
  if (ListsOverlap(r.progressive, s.conservative) ||
      ListsOverlap(r.conservative, s.progressive)) {
    return IFOutcome::kIntersects;
  }
  return IFOutcome::kRefineDisjointMeetsIntersects;
}

IFOutcome IFIntersects(const AprilView& r, const AprilView& s) {
  if (!ListsOverlap(r.conservative, s.conservative)) {
    return IFOutcome::kDisjoint;
  }
  if (ListsOverlap(r.conservative, s.progressive) ||
      ListsOverlap(r.progressive, s.conservative)) {
    return IFOutcome::kIntersects;
  }
  return IFOutcome::kRefineDisjointMeetsIntersects;
}

const char* ToString(IFOutcome outcome) {
  switch (outcome) {
    case IFOutcome::kDisjoint: return "disjoint";
    case IFOutcome::kInside: return "inside";
    case IFOutcome::kContains: return "contains";
    case IFOutcome::kCoveredBy: return "covered-by";
    case IFOutcome::kCovers: return "covers";
    case IFOutcome::kIntersects: return "intersects";
    case IFOutcome::kRefineEquals: return "refine-equals";
    case IFOutcome::kRefineCoveredBy: return "refine-covered-by";
    case IFOutcome::kRefineCovers: return "refine-covers";
    case IFOutcome::kRefineInside: return "refine-inside";
    case IFOutcome::kRefineContains: return "refine-contains";
    case IFOutcome::kRefineMeetsIntersects: return "refine-meets-intersects";
    case IFOutcome::kRefineDisjointMeetsIntersects:
      return "refine-disjoint-meets-intersects";
    case IFOutcome::kRefineAllInside: return "refine-all-inside";
    case IFOutcome::kRefineAllContains: return "refine-all-contains";
  }
  return "?";
}

}  // namespace stj
