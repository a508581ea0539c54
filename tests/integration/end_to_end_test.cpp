// End-to-end: build a scenario, run all four pipelines over every candidate
// pair, and check that (a) all methods agree pair-by-pair, (b) the P+C
// filter statistics dominate the baselines, (c) relate_p agrees with find
// relation semantics on a sample, and (d) the OP2 and APRIL relate paths
// agree with P+C's predicate filters.

#include <gtest/gtest.h>

#include <map>

#include "src/datasets/scenarios.h"
#include "src/datasets/workload.h"
#include "src/topology/pipeline.h"

namespace stj {
namespace {

using de9im::Relation;

class EndToEndTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EndToEndTest, AllMethodsAgreeOnScenario) {
  ScenarioOptions options;
  options.scale = 0.02;
  options.grid_order = 10;
  const ScenarioData scenario = BuildScenario(GetParam(), options);
  ASSERT_FALSE(scenario.candidates.empty());

  Pipeline st2(Method::kST2, scenario.RView(), scenario.SView());
  Pipeline op2(Method::kOP2, scenario.RView(), scenario.SView());
  Pipeline april(Method::kApril, scenario.RView(), scenario.SView());
  Pipeline pc(Method::kPC, scenario.RView(), scenario.SView());

  std::map<Relation, size_t> histogram;
  for (const CandidatePair& pair : scenario.candidates) {
    const Relation expected = st2.FindRelation(pair.r_idx, pair.s_idx);
    ++histogram[expected];
    ASSERT_EQ(op2.FindRelation(pair.r_idx, pair.s_idx), expected)
        << "OP2 disagrees on (" << pair.r_idx << "," << pair.s_idx << ")";
    ASSERT_EQ(april.FindRelation(pair.r_idx, pair.s_idx), expected)
        << "APRIL disagrees on (" << pair.r_idx << "," << pair.s_idx << ")";
    ASSERT_EQ(pc.FindRelation(pair.r_idx, pair.s_idx), expected)
        << "P+C disagrees on (" << pair.r_idx << "," << pair.s_idx << ")";
  }

  // Effectiveness ordering (Fig. 7(b)): P+C refines no more than APRIL,
  // which refines no more than OP2/ST2.
  EXPECT_LE(pc.Stats().refined, april.Stats().refined);
  EXPECT_LE(april.Stats().refined, op2.Stats().refined);
  EXPECT_LE(op2.Stats().refined, st2.Stats().refined);
  EXPECT_EQ(pc.Stats().pairs, scenario.candidates.size());
}

INSTANTIATE_TEST_SUITE_P(Scenarios, EndToEndTest,
                         ::testing::Values("TL-TW", "TC-TZ", "OLE-OPE",
                                           "OBN-OPN"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(EndToEndRelate, PredicateJoinMatchesFindRelationDerivation) {
  ScenarioOptions options;
  options.scale = 0.1;
  options.grid_order = 10;
  const ScenarioData scenario = BuildScenario("OLE-OPE", options);
  Pipeline pc(Method::kPC, scenario.RView(), scenario.SView());
  Pipeline verifier(Method::kST2, scenario.RView(), scenario.SView());

  const Relation predicates[] = {Relation::kEquals, Relation::kMeets,
                                 Relation::kInside, Relation::kIntersects};
  size_t checked = 0;
  for (size_t i = 0; i < scenario.candidates.size() && checked < 500;
       i += 3, ++checked) {
    const CandidatePair& pair = scenario.candidates[i];
    for (const Relation p : predicates) {
      const bool via_pc = pc.Relate(pair.r_idx, pair.s_idx, p);
      const bool via_st2 = verifier.Relate(pair.r_idx, pair.s_idx, p);
      ASSERT_EQ(via_pc, via_st2)
          << "predicate " << ToString(p) << " on (" << pair.r_idx << ","
          << pair.s_idx << ")";
    }
  }
  EXPECT_GT(checked, 100u);
}

TEST(EndToEndRelate, PathAgreesAcrossMethodsOnPredicates) {
  // Exercise the non-P+C Relate code paths (OP2/APRIL fall back to
  // refinement) against P+C's predicate filters.
  ScenarioOptions options;
  options.scale = 0.08;
  options.grid_order = 10;
  const ScenarioData scenario = BuildScenario("TL-TW", options);
  Pipeline op2(Method::kOP2, scenario.RView(), scenario.SView());
  Pipeline april(Method::kApril, scenario.RView(), scenario.SView());
  Pipeline pc(Method::kPC, scenario.RView(), scenario.SView());
  size_t checked = 0;
  for (size_t i = 0; i < scenario.candidates.size() && checked < 150;
       i += 2, ++checked) {
    const CandidatePair& pair = scenario.candidates[i];
    for (const Relation p : {Relation::kIntersects, Relation::kMeets,
                             Relation::kDisjoint, Relation::kCoveredBy}) {
      const bool expected = pc.Relate(pair.r_idx, pair.s_idx, p);
      ASSERT_EQ(op2.Relate(pair.r_idx, pair.s_idx, p), expected);
      ASSERT_EQ(april.Relate(pair.r_idx, pair.s_idx, p), expected);
    }
  }
  EXPECT_GT(checked, 50u);
}

TEST(EndToEndScalability, HighComplexityRefinesLessWithPC) {
  // Fig. 8(a)'s shape: the P+C undetermined rate at the top complexity level
  // is lower than at the bottom level.
  ScenarioOptions options;
  options.scale = 0.12;
  options.grid_order = 11;
  const ScenarioData scenario = BuildScenario("OLE-OPE", options);
  const ComplexityLevels levels = GroupByComplexity(scenario, 5);
  ASSERT_EQ(levels.pairs.size(), 5u);
  ASSERT_GT(levels.pairs.front().size(), 20u);

  auto undetermined_rate = [&](const std::vector<CandidatePair>& pairs) {
    Pipeline pc(Method::kPC, scenario.RView(), scenario.SView());
    for (const CandidatePair& pair : pairs) {
      pc.FindRelation(pair.r_idx, pair.s_idx);
    }
    return pc.Stats().UndeterminedPercent();
  };
  const double low = undetermined_rate(levels.pairs.front());
  const double high = undetermined_rate(levels.pairs.back());
  EXPECT_LT(high, low) << "filter effectiveness should grow with complexity";
}

}  // namespace
}  // namespace stj
