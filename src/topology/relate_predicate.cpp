#include "src/topology/relate_predicate.h"

#include "src/interval/interval_algebra.h"
#include "src/topology/relate_tables.h"

namespace stj {

using de9im::Relation;

namespace {

// The helpers below implement only the interval-list (APRIL) part of each
// Fig. 6 flow; the MBR early exits common to all predicates live in the
// RelateFeasible/RelateCertain tables (relate_tables.h), applied once in
// RelatePredicateFilter and proved against the model by static_checks.cpp.

// relate_intersects: intersects is the negation of disjoint, so the APRIL
// tests answer it directly.
RelateAnswer IntersectsFromLists(const AprilView& r, const AprilView& s) {
  if (!ListsOverlap(r.conservative, s.conservative)) return RelateAnswer::kNo;
  if (ListsOverlap(r.conservative, s.progressive) ||
      ListsOverlap(r.progressive, s.conservative)) {
    return RelateAnswer::kYes;
  }
  return RelateAnswer::kInconclusive;
}

RelateAnswer Negate(RelateAnswer a) {
  switch (a) {
    case RelateAnswer::kYes: return RelateAnswer::kNo;
    case RelateAnswer::kNo: return RelateAnswer::kYes;
    case RelateAnswer::kInconclusive: return RelateAnswer::kInconclusive;
  }
  return RelateAnswer::kInconclusive;
}

// relate_inside / relate_covered_by (Fig. 6 left), r within s: both require
// r not to stick out of s. The strict/non-strict distinction is purely an
// MBR condition (RelateFeasible), so the list tests are shared.
RelateAnswer WithinFromLists(const AprilView& r, const AprilView& s) {
  if (!ListInside(r.conservative, s.conservative)) return RelateAnswer::kNo;
  if (ListInside(r.conservative, s.progressive)) {
    // r lies within cells fully interior to s: strict inside holds, and
    // therefore covered by holds as well.
    return RelateAnswer::kYes;
  }
  return RelateAnswer::kInconclusive;
}

// relate_meets (Fig. 6 middle).
RelateAnswer MeetsFromLists(const AprilView& r, const AprilView& s) {
  if (!ListsOverlap(r.conservative, s.conservative)) {
    return RelateAnswer::kNo;  // definitely disjoint
  }
  if (ListsOverlap(r.conservative, s.progressive) ||
      ListsOverlap(r.progressive, s.conservative)) {
    return RelateAnswer::kNo;  // interiors definitely overlap
  }
  return RelateAnswer::kInconclusive;
}

// relate_equals (Fig. 6 right).
RelateAnswer EqualsFromLists(const AprilView& r, const AprilView& s) {
  if (!ListsMatch(r.conservative, s.conservative)) return RelateAnswer::kNo;
  if (!ListsMatch(r.progressive, s.progressive)) return RelateAnswer::kNo;
  return RelateAnswer::kInconclusive;
}

}  // namespace

RelateAnswer RelateFromMbrs(de9im::Relation p, const Box& r_mbr,
                            const Box& s_mbr) {
  const BoxRelation boxes = ClassifyBoxes(r_mbr, s_mbr);
  if (!RelateFeasible(p, boxes)) return RelateAnswer::kNo;
  if (RelateCertain(p, boxes)) return RelateAnswer::kYes;
  return RelateAnswer::kInconclusive;
}

RelateAnswer RelatePredicateFilter(de9im::Relation p, const Box& r_mbr,
                                   const AprilView& r_april, const Box& s_mbr,
                                   const AprilView& s_april) {
  if (const RelateAnswer answer = RelateFromMbrs(p, r_mbr, s_mbr);
      answer != RelateAnswer::kInconclusive) {
    return answer;
  }
  switch (p) {
    case Relation::kIntersects:
      return IntersectsFromLists(r_april, s_april);
    case Relation::kDisjoint:
      return Negate(IntersectsFromLists(r_april, s_april));
    case Relation::kInside:
    case Relation::kCoveredBy:
      return WithinFromLists(r_april, s_april);
    case Relation::kContains:
    case Relation::kCovers:
      // Mirror image of the within flows: s within r.
      return WithinFromLists(s_april, r_april);
    case Relation::kMeets:
      return MeetsFromLists(r_april, s_april);
    case Relation::kEquals:
      return EqualsFromLists(r_april, s_april);
  }
  return RelateAnswer::kInconclusive;
}

const char* ToString(RelateAnswer answer) {
  switch (answer) {
    case RelateAnswer::kYes: return "yes";
    case RelateAnswer::kNo: return "no";
    case RelateAnswer::kInconclusive: return "inconclusive";
  }
  return "?";
}

}  // namespace stj
