#include <gtest/gtest.h>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/datasets/scenarios.h"
#include "src/topology/parallel.h"
#include "src/topology/shard_scheduler.h"
#include "tests/robustness/corrupter.h"
#include "tests/test_support.h"

// Degraded-mode correctness: when APRIL approximations are missing, flagged
// corrupt, or fail their record sums in a prepared shard set, the kApril/kPC
// pipelines must fall back to refinement for the affected pairs and still
// produce results identical to the approximation-free kOP2 ground truth,
// with the fallbacks surfaced in PipelineStats::fallback_refined.

namespace stj {
namespace {

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

  ~PipelineDegradedTest() override {
    std::error_code ignored;
    std::filesystem::remove_all(shard_dir_, ignored);
  }

  template <typename Result>
  void ExpectMatchesGroundTruthWithFallback(const Result& result,
                                            const char* label) {
    ASSERT_EQ(result.relations.size(), ground_truth_.relations.size()) << label;
    for (size_t i = 0; i < result.relations.size(); ++i) {
      ASSERT_EQ(result.relations[i], ground_truth_.relations[i])
          << label << " pair " << i;
    }
    EXPECT_GT(result.stats.fallback_refined, 0u) << label;
    EXPECT_LE(result.stats.fallback_refined, result.stats.refined) << label;
  }

  /// Prepares both sides as shard sets (the form `stj_cli prepare` writes)
  /// and flips the first payload byte of every \p stride-th list record of
  /// every R tile. Returns how many records were flipped.
  size_t PrepareWithFlippedRecords(size_t stride) {
    shard_dir_ = test::TempPath("pipeline_degraded_shards");
    PartitionOptions poptions;
    poptions.target_tiles = 4;
    EXPECT_TRUE(BuildShardSet(shard_dir_ + "/r", scenario_.r.objects,
                              CompressedAprilStore::FromStore(
                                  AprilStore::FromApproximations(
                                      scenario_.r_april)),
                              poptions)
                    .ok());
    EXPECT_TRUE(BuildShardSet(shard_dir_ + "/s", scenario_.s.objects,
                              CompressedAprilStore::FromStore(
                                  AprilStore::FromApproximations(
                                      scenario_.s_april)),
                              poptions)
                    .ok());
    ShardSet r_set;
    EXPECT_TRUE(ShardSet::Open(shard_dir_ + "/r", &r_set).ok());
    size_t flipped = 0;
    for (uint32_t t = 0; t < r_set.Tiles(); ++t) {
      std::string bytes = test::ReadFileBytes(r_set.TilePath(t));
      uint64_t begin_at = 0, begin_bytes = 0, payload_at = 0, payload_bytes = 0;
      EXPECT_TRUE(test::FindShardSegment(bytes.data(), shard::kAprilByteBegin,
                                         &begin_at, &begin_bytes));
      EXPECT_TRUE(test::FindShardSegment(bytes.data(), shard::kAprilBytes,
                                         &payload_at, &payload_bytes));
      for (uint64_t i = 0; i < r_set.Tile(t).object_count; i += stride) {
        uint64_t lo = 0, hi = 0;
        std::memcpy(&lo, bytes.data() + begin_at + 8 * i, sizeof lo);
        std::memcpy(&hi, bytes.data() + begin_at + 8 * (i + 1), sizeof hi);
        if (lo == hi) continue;
        bytes = test::WithFlippedByte(bytes, payload_at + lo);
        ++flipped;
      }
      test::WriteFileBytes(r_set.TilePath(t), bytes);
    }
    return flipped;
  }

  /// Joins the two prepared sides, as `stj_cli join <dir>/r <dir>/s` does.
  ShardJoinResult JoinPrepared(Method method) {
    ShardSet r_set;
    ShardSet s_set;
    EXPECT_TRUE(ShardSet::Open(shard_dir_ + "/r", &r_set).ok());
    EXPECT_TRUE(ShardSet::Open(shard_dir_ + "/s", &s_set).ok());
    ShardJoinOptions options;
    options.join.num_threads = 2;
    ShardJoinResult result =
        ShardedFindRelation(method, r_set, s_set, options);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    // The candidates are in the sharded result's canonical (r, s) order.
    EXPECT_TRUE(result.pairs == scenario_.candidates);
    return result;
  }

  ScenarioData scenario_;
  ParallelJoinResult ground_truth_;
  std::string shard_dir_;
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
  // Mark every 3rd R and every 4th S approximation as corrupt, the way the
  // APRIL loaders do for records that fail their checksum.
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
  // Prepare both sides, flip one list payload byte in every 5th record of
  // every R tile, and join the damaged sets: each flipped record fails its
  // record sum when a worker decodes it, so its pairs refine, and the
  // results still match ground truth exactly.
  const size_t flipped = PrepareWithFlippedRecords(5);
  ASSERT_GT(flipped, 0u);
  const ShardJoinResult result = JoinPrepared(Method::kPC);
  ExpectMatchesGroundTruthWithFallback(result, "disk corruption");
  EXPECT_GT(result.stats.decoded_corrupt, 0u);
}

TEST_F(PipelineDegradedTest, PermissiveStoreLoadKeepsFilterDecisionsActive) {
  // Degradation must stay *isolated*: with a few corrupt list records in a
  // prepared set, the healthy majority still decides pairs at the APRIL
  // filter stage — corruption must not silently push the whole join onto
  // the refinement path. Flip one payload byte in every 7th record of every
  // R tile and join the damaged sets with both filtering methods.
  const size_t flipped = PrepareWithFlippedRecords(7);
  ASSERT_GT(flipped, 0u);
  for (const Method method : {Method::kApril, Method::kPC}) {
    const ShardJoinResult result = JoinPrepared(method);
    ExpectMatchesGroundTruthWithFallback(result, ToString(method));
    // The healthy records kept the filter stage in play.
    EXPECT_GT(result.stats.decided_by_filter, 0u) << ToString(method);
  }
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
