#include "src/topology/find_relation.h"

namespace stj {

using de9im::Relation;

namespace {

FilterDecision Definite(Relation rel, DecisionStage stage) {
  FilterDecision d;
  d.definite = true;
  d.relation = rel;
  d.stage = stage;
  return d;
}

FilterDecision FromOutcome(IFOutcome outcome) {
  if (IsDefinite(outcome)) {
    return Definite(DefiniteRelation(outcome),
                    DecisionStage::kIntermediateFilter);
  }
  FilterDecision d;
  d.definite = false;
  d.candidates = CandidatesOf(outcome);
  d.stage = DecisionStage::kRefinement;
  return d;
}

}  // namespace

FilterDecision FindRelationFilter(const Box& r_mbr, const AprilView& r_april,
                                  const Box& s_mbr, const AprilView& s_april) {
  // Algorithm 1: dispatch on the MBR intersection case.
  switch (ClassifyBoxes(r_mbr, s_mbr)) {
    case BoxRelation::kDisjoint:
      return Definite(Relation::kDisjoint, DecisionStage::kMbrFilter);
    case BoxRelation::kCross:
      return Definite(Relation::kIntersects, DecisionStage::kMbrFilter);
    case BoxRelation::kEqual:
      return FromOutcome(IFEquals(r_april, s_april));
    case BoxRelation::kRInsideS:
      return FromOutcome(IFInside(r_april, s_april));
    case BoxRelation::kSInsideR:
      return FromOutcome(IFContains(r_april, s_april));
    case BoxRelation::kOverlap:
      return FromOutcome(IFIntersects(r_april, s_april));
  }
  FilterDecision d;
  d.definite = false;
  d.candidates = de9im::RelationSet::All();
  d.stage = DecisionStage::kRefinement;
  return d;
}

}  // namespace stj
