#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/datasets/scenarios.h"
#include "src/raster/april_io.h"
#include "src/topology/parallel.h"
#include "tests/robustness/corrupter.h"

// Degraded-mode correctness: when APRIL approximations are missing or flagged
// corrupt, the kApril/kPC pipelines must fall back to refinement for the
// affected pairs and still produce results identical to the approximation-free
// kOP2 ground truth, with the fallbacks surfaced in
// PipelineStats::fallback_refined.

namespace stj {
namespace {

std::string TempPath(const char* name) {
  // Pid-qualified: each test case is a separate ctest process and the cases
  // must not race on shared scratch files in TempDir.
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::string(::testing::TempDir()) + "/" +
         (info != nullptr ? info->name() : "unknown") + "_" +
         std::to_string(::getpid()) + "_" + name;
}

class PipelineDegradedTest : public ::testing::Test {
 protected:
  PipelineDegradedTest() {
    ScenarioOptions options;
    options.scale = 0.05;
    options.grid_order = 10;
    scenario_ = BuildScenario("OLE-OPE", options);
    ground_truth_ =
        ParallelFindRelation(Method::kOP2, scenario_.RView(), scenario_.SView(),
                             scenario_.candidates,
                             JoinOptions{.num_threads = 1});
  }

  void ExpectMatchesGroundTruthWithFallback(const ParallelJoinResult& result,
                                            const char* label) {
    ASSERT_EQ(result.relations.size(), ground_truth_.relations.size()) << label;
    for (size_t i = 0; i < result.relations.size(); ++i) {
      ASSERT_EQ(result.relations[i], ground_truth_.relations[i])
          << label << " pair " << i;
    }
    EXPECT_GT(result.stats.fallback_refined, 0u) << label;
    EXPECT_LE(result.stats.fallback_refined, result.stats.refined) << label;
  }

  ScenarioData scenario_;
  ParallelJoinResult ground_truth_;
};

TEST_F(PipelineDegradedTest, HealthyRunHasZeroFallbacks) {
  for (const Method method : {Method::kApril, Method::kPC}) {
    const ParallelJoinResult result =
        ParallelFindRelation(method, scenario_.RView(), scenario_.SView(),
                             scenario_.candidates,
                             JoinOptions{.num_threads = 2});
    EXPECT_EQ(result.stats.fallback_refined, 0u) << ToString(method);
  }
}

TEST_F(PipelineDegradedTest, FlaggedCorruptRecordsFallBackToRefinement) {
  // Mark every 3rd R and every 4th S approximation as corrupt, the way
  // LoadAprilFileDetailed does for records that fail their checksum.
  std::vector<AprilApproximation> r_april = scenario_.r_april;
  std::vector<AprilApproximation> s_april = scenario_.s_april;
  for (size_t i = 0; i < r_april.size(); i += 3) r_april[i].usable = false;
  for (size_t i = 0; i < s_april.size(); i += 4) s_april[i].usable = false;
  const DatasetView r_view{&scenario_.r.objects, &r_april};
  const DatasetView s_view{&scenario_.s.objects, &s_april};

  for (const Method method : {Method::kApril, Method::kPC}) {
    const ParallelJoinResult result = ParallelFindRelation(
        method, r_view, s_view, scenario_.candidates,
        JoinOptions{.num_threads = 2});
    ExpectMatchesGroundTruthWithFallback(result, ToString(method));
  }
}

TEST_F(PipelineDegradedTest, MissingAprilVectorFallsBack) {
  // No approximations at all on the R side (e.g. the .april file was absent).
  const DatasetView r_view{&scenario_.r.objects, nullptr};
  for (const Method method : {Method::kApril, Method::kPC}) {
    const ParallelJoinResult result = ParallelFindRelation(
        method, r_view, scenario_.SView(), scenario_.candidates,
        JoinOptions{.num_threads = 2});
    ExpectMatchesGroundTruthWithFallback(result, ToString(method));
  }
}

TEST_F(PipelineDegradedTest, ShortAprilVectorFallsBack) {
  // A truncated load yields a prefix; indices past its end must degrade, not
  // read out of bounds.
  std::vector<AprilApproximation> r_april(
      scenario_.r_april.begin(),
      scenario_.r_april.begin() + scenario_.r_april.size() / 2);
  const DatasetView r_view{&scenario_.r.objects, &r_april};
  const ParallelJoinResult result =
      ParallelFindRelation(Method::kPC, r_view, scenario_.SView(),
                           scenario_.candidates, JoinOptions{.num_threads = 2});
  ExpectMatchesGroundTruthWithFallback(result, "short r_april");
}

TEST_F(PipelineDegradedTest, DiskCorruptionEndToEnd) {
  // Save the real R approximations, flip one payload byte in every 5th
  // record, reload through the corruption-safe reader, and join with the
  // damaged vector: results must still match ground truth exactly.
  const std::string path = TempPath("pipeline_degraded.april");
  ASSERT_TRUE(SaveAprilFileCompressed(path, scenario_.r_april));
  std::string bytes = test::ReadFileBytes(path);

  constexpr size_t kHeaderSize = 16;
  size_t off = kHeaderSize;
  size_t flipped = 0;
  for (size_t i = 0; i < scenario_.r_april.size(); ++i) {
    uint64_t payload_size = 0;
    ASSERT_LE(off + 16, bytes.size());
    std::memcpy(&payload_size, bytes.data() + off, sizeof payload_size);
    if (i % 5 == 0 && payload_size > 0) {
      bytes = test::WithFlippedByte(bytes, off + 16);  // first payload byte
      ++flipped;
    }
    off += 16 + payload_size;
  }
  ASSERT_GT(flipped, 0u);
  test::WriteFileBytes(path, bytes);

  std::vector<AprilApproximation> damaged;
  AprilLoadReport report;
  const Status status = LoadAprilFileDetailed(path, &damaged, &report);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(report.Degraded());
  EXPECT_EQ(report.corrupt, flipped);
  ASSERT_EQ(damaged.size(), scenario_.r_april.size());

  const DatasetView r_view{&scenario_.r.objects, &damaged};
  const ParallelJoinResult result =
      ParallelFindRelation(Method::kPC, r_view, scenario_.SView(),
                           scenario_.candidates, JoinOptions{.num_threads = 2});
  ExpectMatchesGroundTruthWithFallback(result, "disk corruption");
  std::remove(path.c_str());
}

TEST_F(PipelineDegradedTest, PermissiveStoreLoadKeepsFilterDecisionsActive) {
  // Degradation must stay *isolated*: after a permissive load of a store
  // with a few corrupt records, the healthy majority still decides pairs at
  // the APRIL filter stage — corruption must not silently push the whole
  // join onto the refinement path. Save the R store, flip one payload byte
  // in every 7th record, reload through the permissive arena loader, and
  // join straight from the repaired store.
  const std::string path = TempPath("pipeline_store_degraded.april");
  ASSERT_TRUE(SaveAprilStoreCompressed(
      path, AprilStore::FromApproximations(scenario_.r_april)));
  std::string bytes = test::ReadFileBytes(path);

  constexpr size_t kHeaderSize = 16;
  size_t off = kHeaderSize;
  size_t flipped = 0;
  for (size_t i = 0; i < scenario_.r_april.size(); ++i) {
    uint64_t payload_size = 0;
    ASSERT_LE(off + 16, bytes.size());
    std::memcpy(&payload_size, bytes.data() + off, sizeof payload_size);
    if (i % 7 == 0 && payload_size > 0) {
      bytes = test::WithFlippedByte(bytes, off + 16);
      ++flipped;
    }
    off += 16 + payload_size;
  }
  ASSERT_GT(flipped, 0u);
  test::WriteFileBytes(path, bytes);

  AprilStore store;
  AprilLoadReport report;
  const Status status = LoadAprilStore(path, &store, &report);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(report.Degraded());
  EXPECT_EQ(report.corrupt, flipped);
  ASSERT_EQ(store.Count(), scenario_.r_april.size());

  const DatasetView r_view{&scenario_.r.objects, nullptr, &store};
  for (const Method method : {Method::kApril, Method::kPC}) {
    const ParallelJoinResult result = ParallelFindRelation(
        method, r_view, scenario_.SView(), scenario_.candidates,
        JoinOptions{.num_threads = 2});
    ExpectMatchesGroundTruthWithFallback(result, ToString(method));
    // The healthy records kept the filter stage in play.
    EXPECT_GT(result.stats.decided_by_filter, 0u) << ToString(method);
  }
  std::remove(path.c_str());
}

TEST_F(PipelineDegradedTest, RelatePredicateDegradesExactly) {
  std::vector<AprilApproximation> r_april = scenario_.r_april;
  for (size_t i = 0; i < r_april.size(); i += 2) r_april[i].usable = false;
  const DatasetView r_view{&scenario_.r.objects, &r_april};

  for (const de9im::Relation predicate :
       {de9im::Relation::kIntersects, de9im::Relation::kInside}) {
    const ParallelRelateResult truth = ParallelRelate(
        Method::kOP2, scenario_.RView(), scenario_.SView(),
        scenario_.candidates, predicate, JoinOptions{.num_threads = 1});
    const ParallelRelateResult degraded =
        ParallelRelate(Method::kPC, r_view, scenario_.SView(),
                       scenario_.candidates, predicate,
                       JoinOptions{.num_threads = 2});
    EXPECT_EQ(degraded.matches, truth.matches);
    EXPECT_GT(degraded.stats.fallback_refined, 0u);
  }
}

}  // namespace
}  // namespace stj
