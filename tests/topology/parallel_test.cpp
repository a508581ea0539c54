#include "src/topology/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/datasets/scenarios.h"
#include "src/raster/april_compressed.h"
#include "src/raster/april_store.h"
#include "tests/test_support.h"

namespace stj {
namespace {

class ParallelTest : public ::testing::Test {
 protected:
  ParallelTest() {
    ScenarioOptions options;
    options.scale = 0.05;
    options.grid_order = 10;
    scenario_ = BuildScenario("OLE-OPE", options);
    r_store_ = AprilStore::FromApproximations(scenario_.r_april);
    s_store_ = AprilStore::FromApproximations(scenario_.s_april);
    r_cstore_ = CompressedAprilStore::FromStore(r_store_);
    s_cstore_ = CompressedAprilStore::FromStore(s_store_);
  }

  DatasetView RArena() const {
    return DatasetView{&scenario_.r.objects, nullptr, &r_store_};
  }
  DatasetView SArena() const {
    return DatasetView{&scenario_.s.objects, nullptr, &s_store_};
  }
  DatasetView RCompressed() const {
    return DatasetView{&scenario_.r.objects, nullptr, nullptr, &r_cstore_};
  }
  DatasetView SCompressed() const {
    return DatasetView{&scenario_.s.objects, nullptr, nullptr, &s_cstore_};
  }

  /// An (R, S) storage pairing for the differential sweeps.
  struct Storage {
    const char* name;
    DatasetView r;
    DatasetView s;
  };

  /// The compressed form on both sides and both mixed pairings: each side
  /// reads its own storage, so no pairing may bypass the filter.
  std::vector<Storage> CompressedStorages() const {
    return {{"compressed", RCompressed(), SCompressed()},
            {"arena x compressed", RArena(), SCompressed()},
            {"compressed x arena", RCompressed(), SArena()}};
  }

  /// The differential oracle: the single-threaded input-order loop over the
  /// flat store.
  ParallelJoinResult Serial(Method method) const {
    return ParallelFindRelation(method, scenario_.RView(), scenario_.SView(),
                                scenario_.candidates,
                                JoinOptions{.num_threads = 1});
  }

  /// Relations and the schedule-independent decision counters of \p run
  /// equal \p oracle's.
  static void ExpectSameDecisions(const ParallelJoinResult& run,
                                  const ParallelJoinResult& oracle) {
    EXPECT_EQ(run.relations, oracle.relations);
    EXPECT_EQ(run.stats.refined, oracle.stats.refined);
    EXPECT_EQ(run.stats.decided_by_filter, oracle.stats.decided_by_filter);
    EXPECT_EQ(run.stats.decided_by_mbr, oracle.stats.decided_by_mbr);
  }

  ScenarioData scenario_;
  AprilStore r_store_;
  AprilStore s_store_;
  CompressedAprilStore r_cstore_;
  CompressedAprilStore s_cstore_;
};

TEST_F(ParallelTest, MatchesSerialFindRelation) {
  ASSERT_FALSE(scenario_.candidates.empty());
  const ParallelJoinResult serial = Serial(Method::kPC);
  const ParallelJoinResult parallel = ParallelFindRelation(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      JoinOptions{.num_threads = 4});
  ASSERT_EQ(serial.relations.size(), parallel.relations.size());
  for (size_t i = 0; i < serial.relations.size(); ++i) {
    ASSERT_EQ(serial.relations[i], parallel.relations[i]) << i;
  }
  // Merged counters must add up regardless of the split.
  EXPECT_EQ(parallel.stats.pairs, scenario_.candidates.size());
  EXPECT_EQ(parallel.stats.decided_by_mbr + parallel.stats.decided_by_filter +
                parallel.stats.refined,
            scenario_.candidates.size());
  EXPECT_EQ(parallel.stats.refined, serial.stats.refined);
}

TEST_F(ParallelTest, MatchesSerialRelate) {
  const ParallelRelateResult serial = ParallelRelate(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      de9im::Relation::kInside, JoinOptions{.num_threads = 1});
  const ParallelRelateResult parallel = ParallelRelate(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      de9im::Relation::kInside, JoinOptions{.num_threads = 3});
  EXPECT_EQ(serial.matches, parallel.matches);
}

TEST_F(ParallelTest, EmptyPairListIsFine) {
  const ParallelJoinResult result =
      ParallelFindRelation(Method::kPC, scenario_.RView(), scenario_.SView(),
                           {}, JoinOptions{.num_threads = 8});
  EXPECT_TRUE(result.relations.empty());
  EXPECT_EQ(result.stats.pairs, 0u);
}

TEST_F(ParallelTest, MoreThreadsThanPairs) {
  const std::vector<CandidatePair> few(scenario_.candidates.begin(),
                                       scenario_.candidates.begin() + 3);
  const ParallelJoinResult result = ParallelFindRelation(
      Method::kPC, scenario_.RView(), scenario_.SView(), few,
      JoinOptions{.num_threads = 64});
  EXPECT_EQ(result.relations.size(), 3u);
  EXPECT_EQ(result.stats.pairs, 3u);
}

TEST_F(ParallelTest, ManyThreadsMatchSerialWithWorkStealing) {
  // With 8 workers the candidate list splits into many dynamically claimed
  // 64-pair blocks; results must still land at the original pair positions.
  const ParallelJoinResult serial = Serial(Method::kPC);
  const ParallelJoinResult parallel = ParallelFindRelation(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      JoinOptions{.num_threads = 8});
  EXPECT_EQ(serial.relations, parallel.relations);
  EXPECT_EQ(serial.stats.refined, parallel.stats.refined);
  EXPECT_EQ(serial.stats.decided_by_filter, parallel.stats.decided_by_filter);
}

TEST_F(ParallelTest, TimeStagesPlumbedThroughWorkers) {
  // Workers used to construct Pipeline with the default flag, so parallel
  // stage timings were silently zero. With the flag plumbed, a parallel
  // timed run must report nonzero stage seconds...
  const ParallelJoinResult timed = ParallelFindRelation(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      JoinOptions{.num_threads = 2, .time_stages = true});
  EXPECT_GT(timed.stats.filter_seconds + timed.stats.refine_seconds, 0.0);
  // ...and an untimed run must stay at exactly zero (timers off).
  const ParallelJoinResult untimed = ParallelFindRelation(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      JoinOptions{.num_threads = 2});
  EXPECT_EQ(untimed.stats.filter_seconds, 0.0);
  EXPECT_EQ(untimed.stats.refine_seconds, 0.0);
  EXPECT_EQ(timed.stats.refined, untimed.stats.refined);
}

TEST_F(ParallelTest, TimeStagesPlumbedThroughRelate) {
  const ParallelRelateResult timed = ParallelRelate(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      de9im::Relation::kInside,
      JoinOptions{.num_threads = 2, .time_stages = true});
  EXPECT_GT(timed.stats.filter_seconds + timed.stats.refine_seconds, 0.0);
}

TEST_F(ParallelTest, AllMethodsWorkInParallel) {
  const std::vector<CandidatePair> sample(
      scenario_.candidates.begin(),
      scenario_.candidates.begin() +
          std::min<size_t>(scenario_.candidates.size(), 200));
  const ParallelJoinResult reference =
      ParallelFindRelation(Method::kST2, scenario_.RView(), scenario_.SView(),
                           sample, JoinOptions{.num_threads = 2});
  for (const Method method : {Method::kOP2, Method::kApril, Method::kPC}) {
    const ParallelJoinResult result =
        ParallelFindRelation(method, scenario_.RView(), scenario_.SView(),
                             sample, JoinOptions{.num_threads = 2});
    EXPECT_EQ(result.relations, reference.relations) << ToString(method);
  }
}

/// Equivalence of the block executor with the flat serial oracle. A claimed
/// block is the batch a worker filters in full and then refines grouped by
/// r-object; the batch shape (thread count, block size, store form) is pure
/// scheduling, so relations, matches and decision counters must equal the
/// serial loop's byte for byte.
using BatchPipelineTest = ParallelTest;

constexpr Method kAllMethods[] = {Method::kST2, Method::kOP2, Method::kApril,
                                  Method::kPC};
/// 1 to 4 and 8 threads, the hardware threads and twice them, without
/// repeats.
const std::vector<unsigned>& ThreadCounts() {
  static const std::vector<unsigned> counts = [] {
    std::vector<unsigned> all = {1, 2, 3, 4, 8, test::HardwareThreads(),
                                 test::Oversubscribed()};
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    return all;
  }();
  return counts;
}

TEST_F(BatchPipelineTest, AllMethodsAgreeWithOracleUnderBatching) {
  for (const Method method : kAllMethods) {
    const ParallelJoinResult oracle = Serial(method);
    for (const unsigned threads : ThreadCounts()) {
      SCOPED_TRACE(::testing::Message()
                   << ToString(method) << " threads=" << threads);
      ExpectSameDecisions(
          ParallelFindRelation(method, scenario_.RView(), scenario_.SView(),
                               scenario_.candidates,
                               JoinOptions{.num_threads = threads}),
          oracle);
    }
  }
}

TEST_F(BatchPipelineTest, CompressedStoreBatchedMatchesFlatOracle) {
  // Compressed records reach the filters through the per-worker decoded
  // caches, on both sides or on one side of a mixed pairing. Every pairing
  // must match the flat-store oracle with the filter in play for every
  // pair, and only the methods that read approximations decode.
  for (const Method method : kAllMethods) {
    const ParallelJoinResult oracle = Serial(method);
    const bool reads_april =
        method == Method::kApril || method == Method::kPC;
    for (const Storage& storage : CompressedStorages()) {
      for (const unsigned threads : ThreadCounts()) {
        SCOPED_TRACE(::testing::Message()
                     << ToString(method) << " " << storage.name
                     << " threads=" << threads);
        const ParallelJoinResult run = ParallelFindRelation(
            method, storage.r, storage.s, scenario_.candidates,
            JoinOptions{.num_threads = threads});
        ExpectSameDecisions(run, oracle);
        EXPECT_EQ(run.stats.fallback_refined, 0u);
        EXPECT_EQ(run.stats.decoded_hits + run.stats.decoded_misses > 0,
                  reads_april);
        EXPECT_EQ(run.stats.decoded_corrupt, 0u);
      }
    }
  }
}

TEST_F(BatchPipelineTest, RelateBatchedMatchesOracle) {
  std::vector<Storage> storages = CompressedStorages();
  storages.push_back({"flat", scenario_.RView(), scenario_.SView()});
  for (const Method method : kAllMethods) {
    for (const de9im::Relation predicate :
         {de9im::Relation::kIntersects, de9im::Relation::kInside}) {
      const std::vector<char> oracle =
          ParallelRelate(method, scenario_.RView(), scenario_.SView(),
                         scenario_.candidates, predicate,
                         JoinOptions{.num_threads = 1})
              .matches;
      for (const Storage& storage : storages) {
        for (const unsigned threads : ThreadCounts()) {
          SCOPED_TRACE(::testing::Message()
                       << ToString(method) << " " << ToString(predicate)
                       << " " << storage.name << " threads=" << threads);
          const ParallelRelateResult run = ParallelRelate(
              method, storage.r, storage.s, scenario_.candidates, predicate,
              JoinOptions{.num_threads = threads});
          EXPECT_EQ(run.matches, oracle);
          EXPECT_EQ(run.stats.fallback_refined, 0u);
        }
      }
    }
  }
}

TEST_F(BatchPipelineTest, BatchSizesAndThreadsAreByteIdentical) {
  // The block is clamp(pairs / (threads x 16), 64, 256), so the fixture's
  // candidate set runs at the 64-pair floor. This larger set puts the block
  // above the floor at 2 and 4 threads, and below the ceiling at 4, so the
  // two runs use different block sizes and every block regroups many pairs
  // per r-object; answers must not change.
  ScenarioOptions options;
  options.scale = 0.6;
  options.grid_order = 10;
  const ScenarioData wide = BuildScenario("TC-TZ", options);
  ASSERT_GE(wide.candidates.size(), size_t{4 * 16 * 65});
  ASSERT_LT(wide.candidates.size(), size_t{4 * 16 * 256});
  for (const Method method : {Method::kOP2, Method::kPC}) {
    const ParallelJoinResult oracle =
        ParallelFindRelation(method, wide.RView(), wide.SView(),
                             wide.candidates, JoinOptions{.num_threads = 1});
    const std::vector<char> relate_oracle =
        ParallelRelate(method, wide.RView(), wide.SView(), wide.candidates,
                       de9im::Relation::kMeets, JoinOptions{.num_threads = 1})
            .matches;
    for (const unsigned threads : {2u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << ToString(method) << " threads=" << threads);
      ExpectSameDecisions(
          ParallelFindRelation(method, wide.RView(), wide.SView(),
                               wide.candidates,
                               JoinOptions{.num_threads = threads}),
          oracle);
      EXPECT_EQ(ParallelRelate(method, wide.RView(), wide.SView(),
                               wide.candidates, de9im::Relation::kMeets,
                               JoinOptions{.num_threads = threads})
                    .matches,
                relate_oracle);
    }
  }
}

TEST_F(BatchPipelineTest, TimeStagesAccountsBothStages) {
  // Each worker's pipeline times its blocks' filter and refinement work
  // separately; the merged stats must carry time in both stages.
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const ParallelJoinResult timed = ParallelFindRelation(
        Method::kPC, scenario_.RView(), scenario_.SView(),
        scenario_.candidates,
        JoinOptions{.num_threads = threads, .time_stages = true});
    EXPECT_GT(timed.stats.filter_seconds, 0.0);
    EXPECT_GT(timed.stats.refine_seconds, 0.0);
  }
}

}  // namespace
}  // namespace stj
