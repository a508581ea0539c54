#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/datasets/scenarios.h"
#include "src/topology/parallel.h"
#include "src/topology/pipeline.h"

// A join builds approximations only for the objects its filter reads
// (FilterDemandOf). Over such a build every method and query must answer
// as over the full build, with no pair falling back to refinement.

namespace stj {
namespace {

using de9im::Relation;

constexpr Method kMethods[] = {Method::kPC, Method::kApril, Method::kST2,
                               Method::kOP2};

/// Find-relation (nullopt) and the eight relate_p predicates.
std::vector<std::optional<Relation>> Queries() {
  std::vector<std::optional<Relation>> queries = {std::nullopt};
  for (int p = 0; p < de9im::kNumRelations; ++p) {
    queries.push_back(static_cast<Relation>(p));
  }
  return queries;
}

std::string Label(const std::string& scenario, Method method,
                  std::optional<Relation> query) {
  return scenario + " " + ToString(method) + " " +
         (query ? de9im::ToString(*query) : "find-relation");
}

/// Expects \p masked to hold exactly the records of \p full that \p demand
/// asks for, and unusable empty records everywhere else.
void ExpectMaskedBuild(const std::vector<AprilApproximation>& full,
                       const std::vector<uint8_t>& demand,
                       const std::vector<AprilApproximation>& masked,
                       const std::string& label) {
  ASSERT_EQ(masked.size(), full.size()) << label;
  for (size_t i = 0; i < full.size(); ++i) {
    if (demand[i] != 0) {
      ASSERT_TRUE(masked[i].usable) << label << " object " << i;
      ASSERT_EQ(masked[i].conservative, full[i].conservative)
          << label << " object " << i;
      ASSERT_EQ(masked[i].progressive, full[i].progressive)
          << label << " object " << i;
    } else {
      ASSERT_FALSE(masked[i].usable) << label << " object " << i;
      ASSERT_TRUE(masked[i].conservative.Empty()) << label << " object " << i;
      ASSERT_TRUE(masked[i].progressive.Empty()) << label << " object " << i;
    }
  }
}

void ExpectSameCounters(const PipelineStats& got, const PipelineStats& want,
                        const std::string& label) {
  EXPECT_EQ(got.pairs, want.pairs) << label;
  EXPECT_EQ(got.decided_by_mbr, want.decided_by_mbr) << label;
  EXPECT_EQ(got.decided_by_filter, want.decided_by_filter) << label;
  EXPECT_EQ(got.refined, want.refined) << label;
  EXPECT_EQ(got.fallback_refined, 0u) << label;
}

class FilterDemandTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    ScenarioOptions options;
    options.scale = 0.01;
    options.grid_order = 10;
    scenario_ = BuildScenario(GetParam(), options);
    ASSERT_FALSE(scenario_.candidates.empty());
  }

  ScenarioData scenario_;
};

TEST_P(FilterDemandTest, DemandBuiltListsAnswerAsTheFullBuild) {
  const RasterGrid grid(scenario_.dataspace, scenario_.grid_order);
  const JoinOptions join{.num_threads = 2};
  for (const Method method : kMethods) {
    for (const std::optional<Relation> query : Queries()) {
      const std::string label = Label(scenario_.name, method, query);
      const FilterDemand demand =
          FilterDemandOf(method, query, scenario_.r.objects,
                         scenario_.s.objects, scenario_.candidates);
      const std::vector<AprilApproximation> r_april = BuildAprilApproximations(
          scenario_.r, grid, /*num_threads=*/2, nullptr, &demand.r);
      const std::vector<AprilApproximation> s_april = BuildAprilApproximations(
          scenario_.s, grid, /*num_threads=*/2, nullptr, &demand.s);
      ExpectMaskedBuild(scenario_.r_april, demand.r, r_april, label + " R");
      ExpectMaskedBuild(scenario_.s_april, demand.s, s_april, label + " S");
      if (HasFailure()) return;

      const bool reads_none = method == Method::kST2 ||
                              method == Method::kOP2 ||
                              (query && method != Method::kPC);
      size_t built = 0;
      for (const AprilApproximation& a : r_april) built += a.usable ? 1 : 0;
      for (const AprilApproximation& a : s_april) built += a.usable ? 1 : 0;
      if (reads_none) {
        EXPECT_EQ(built, 0u) << label;
      } else if (!query) {
        EXPECT_GT(built, 0u) << label;
      }

      const DatasetView r_view{&scenario_.r.objects, &r_april};
      const DatasetView s_view{&scenario_.s.objects, &s_april};
      if (query) {
        const ParallelRelateResult want =
            ParallelRelate(method, scenario_.RView(), scenario_.SView(),
                           scenario_.candidates, *query, join);
        const ParallelRelateResult got = ParallelRelate(
            method, r_view, s_view, scenario_.candidates, *query, join);
        EXPECT_EQ(got.matches, want.matches) << label;
        ExpectSameCounters(got.stats, want.stats, label);
      } else {
        const ParallelJoinResult want =
            ParallelFindRelation(method, scenario_.RView(), scenario_.SView(),
                                 scenario_.candidates, join);
        const ParallelJoinResult got = ParallelFindRelation(
            method, r_view, s_view, scenario_.candidates, join);
        EXPECT_EQ(got.relations, want.relations) << label;
        ExpectSameCounters(got.stats, want.stats, label);
      }
    }
  }
}

TEST_P(FilterDemandTest, PcRelateDemandIsThePairsTheMbrsLeaveOpen) {
  for (const std::optional<Relation> query : Queries()) {
    const FilterDemand demand =
        FilterDemandOf(Method::kPC, query, scenario_.r.objects,
                       scenario_.s.objects, scenario_.candidates);
    std::vector<uint8_t> r_want(scenario_.r.objects.size(), 0);
    std::vector<uint8_t> s_want(scenario_.s.objects.size(), 0);
    for (const CandidatePair& pair : scenario_.candidates) {
      if (query &&
          RelateFromMbrs(*query, scenario_.r.objects[pair.r_idx].geometry.Bounds(),
                         scenario_.s.objects[pair.s_idx].geometry.Bounds()) !=
              RelateAnswer::kInconclusive) {
        continue;
      }
      r_want[pair.r_idx] = 1;
      s_want[pair.s_idx] = 1;
    }
    const std::string label = Label(scenario_.name, Method::kPC, query);
    EXPECT_EQ(demand.r, r_want) << label;
    EXPECT_EQ(demand.s, s_want) << label;
  }
}

TEST_P(FilterDemandTest, MaskedBuildIsThreadCountInvariant) {
  const RasterGrid grid(scenario_.dataspace, scenario_.grid_order);
  const FilterDemand demand =
      FilterDemandOf(Method::kPC, Relation::kInside, scenario_.r.objects,
                     scenario_.s.objects, scenario_.candidates);
  const std::vector<AprilApproximation> serial =
      BuildAprilApproximations(scenario_.s, grid, 1, nullptr, &demand.s);
  ExpectMaskedBuild(scenario_.s_april, demand.s, serial, "1 thread");
  for (unsigned threads = 2; threads <= 8; ++threads) {
    const std::vector<AprilApproximation> parallel =
        BuildAprilApproximations(scenario_.s, grid, threads, nullptr, &demand.s);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i].usable, serial[i].usable) << threads << " " << i;
      ASSERT_EQ(parallel[i].conservative, serial[i].conservative)
          << threads << " " << i;
      ASSERT_EQ(parallel[i].progressive, serial[i].progressive)
          << threads << " " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, FilterDemandTest,
                         ::testing::Values("TC-TZ", "OBE-OPE", "OLE-OPE"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace stj
