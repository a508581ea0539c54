#include "src/topology/shard_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/datasets/scenarios.h"
#include "src/util/exec_context.h"

namespace stj {
namespace {

CompressedAprilStore Compress(const std::vector<AprilApproximation>& april) {
  CompressedAprilStore cstore;
  for (const AprilApproximation& a : april) {
    if (!a.usable) {
      cstore.AppendCorruptPlaceholder();
      continue;
    }
    const AprilView view(a);
    cstore.AppendEncoded(view.conservative, view.progressive);
  }
  return cstore;
}

// The differential oracle: the single-arena compressed join over the
// scenario's own candidate list, which is in the sharded result's canonical
// (r, s) order.
struct Reference {
  std::vector<CandidatePair> pairs;
  std::vector<de9im::Relation> relations;

  // Relation of one pair; asserts the pair exists in the reference.
  de9im::Relation Of(const CandidatePair& p) const {
    const auto it = std::lower_bound(pairs.begin(), pairs.end(), p);
    EXPECT_TRUE(it != pairs.end() && *it == p)
        << "pair (" << p.r_idx << ", " << p.s_idx << ") not in reference";
    return relations[static_cast<size_t>(it - pairs.begin())];
  }
};

class ShardJoinTest : public ::testing::Test {
 protected:
  ShardJoinTest() {
    ScenarioOptions options;
    options.scale = 0.05;
    options.grid_order = 10;
    scenario_ = BuildScenario("OLE-OPE", options);
    r_cstore_ = Compress(scenario_.r_april);
    s_cstore_ = Compress(scenario_.s_april);

    DatasetView rv;
    rv.objects = &scenario_.r.objects;
    rv.cstore = &r_cstore_;
    DatasetView sv;
    sv.objects = &scenario_.s.objects;
    sv.cstore = &s_cstore_;
    JoinOptions options2;
    options2.num_threads = 2;
    const ParallelJoinResult ref = ParallelFindRelation(
        Method::kPC, rv, sv, scenario_.candidates, options2);
    EXPECT_TRUE(ref.status.ok());
    // The filter join already emits the canonical (r, s) order.
    EXPECT_TRUE(std::is_sorted(scenario_.candidates.begin(),
                               scenario_.candidates.end()));
    reference_.pairs = scenario_.candidates;
    reference_.relations = ref.relations;
  }

  // Writes both shard sets under a test-unique directory and opens them.
  void BuildSets(const std::string& name, uint32_t r_tiles, uint32_t s_tiles,
                 ShardSet* r_set, ShardSet* s_set) {
    const std::string dir =
        std::string(::testing::TempDir()) + "/shard_join_" + name;
    PartitionOptions poptions;
    poptions.target_tiles = r_tiles;
    ASSERT_TRUE(BuildShardSet(dir + "/r", scenario_.r.objects, r_cstore_,
                              poptions)
                    .ok());
    poptions.target_tiles = s_tiles;
    ASSERT_TRUE(BuildShardSet(dir + "/s", scenario_.s.objects, s_cstore_,
                              poptions)
                    .ok());
    ASSERT_TRUE(ShardSet::Open(dir + "/r", r_set).ok());
    ASSERT_TRUE(ShardSet::Open(dir + "/s", s_set).ok());
  }

  void ExpectMatchesReference(const ShardJoinResult& result) {
    ASSERT_TRUE(result.status.ok()) << result.status.message();
    ASSERT_EQ(result.pairs.size(), reference_.pairs.size());
    ASSERT_EQ(result.relations.size(), reference_.relations.size());
    for (size_t i = 0; i < result.pairs.size(); ++i) {
      ASSERT_TRUE(result.pairs[i] == reference_.pairs[i])
          << "pair " << i << ": (" << result.pairs[i].r_idx << ", "
          << result.pairs[i].s_idx << ") vs (" << reference_.pairs[i].r_idx
          << ", " << reference_.pairs[i].s_idx << ")";
      ASSERT_EQ(result.relations[i], reference_.relations[i]) << "pair " << i;
    }
  }

  ScenarioData scenario_;
  CompressedAprilStore r_cstore_;
  CompressedAprilStore s_cstore_;
  Reference reference_;
};

TEST_F(ShardJoinTest, SingleTileMatchesSingleArenaJoin) {
  ShardSet r_set, s_set;
  BuildSets("single", 1, 1, &r_set, &s_set);
  ShardJoinOptions options;
  options.join.num_threads = 1;
  const ShardJoinResult result =
      ShardedFindRelation(Method::kPC, r_set, s_set, options);
  ExpectMatchesReference(result);
  EXPECT_EQ(result.shard_stats.tasks, 1u);
  EXPECT_EQ(result.shard_stats.pairs_deduped, 0u);
}

TEST_F(ShardJoinTest, DifferentialSweepOverGridsCachesAndThreads) {
  // The acceptance sweep: the sharded join must be byte-identical to the
  // single-arena reference at every (tile grid, cache budget, threads)
  // combination — cache budgets far below the working set included (they
  // only force reloads).
  struct TileConfig {
    const char* name;
    uint32_t r_tiles, s_tiles;
  };
  struct RunConfig {
    size_t cache_bytes;
    unsigned threads;
  };
  const TileConfig tile_configs[] = {
      {"sweep_a", 4, 6}, {"sweep_b", 9, 4}, {"sweep_c", 2, 12}};
  const RunConfig run_configs[] = {
      {size_t{32} << 10, 1},   // thrash the cache, serial loop
      {size_t{256} << 20, 3},  // all resident, parallel
      {size_t{1} << 20, 2},    // tight cache, parallel
  };
  for (const TileConfig& tc : tile_configs) {
    ShardSet r_set, s_set;
    BuildSets(tc.name, tc.r_tiles, tc.s_tiles, &r_set, &s_set);
    for (const RunConfig& rc : run_configs) {
      ShardJoinOptions options;
      options.shard_cache_bytes = rc.cache_bytes;
      options.join.num_threads = rc.threads;
      const ShardJoinResult result =
          ShardedFindRelation(Method::kPC, r_set, s_set, options);
      SCOPED_TRACE(std::string(tc.name) + " cache=" +
                   std::to_string(rc.cache_bytes) +
                   " threads=" + std::to_string(rc.threads));
      ExpectMatchesReference(result);
      EXPECT_EQ(result.shard_stats.tasks_run, result.shard_stats.tasks);
      EXPECT_EQ(result.shard_stats.pairs_emitted, reference_.pairs.size());
      // Every task fetches exactly two shards from the cache.
      EXPECT_EQ(result.shard_stats.shard_loads + result.shard_stats.shard_hits,
                2 * result.shard_stats.tasks_run);
    }
  }
}

TEST_F(ShardJoinTest, BoundaryPairsAreDedupedNotDropped) {
  ShardSet r_set, s_set;
  BuildSets("dedup", 6, 6, &r_set, &s_set);
  ShardJoinOptions options;
  options.join.num_threads = 1;
  const ShardJoinResult result =
      ShardedFindRelation(Method::kPC, r_set, s_set, options);
  ExpectMatchesReference(result);
  // With replicated boundary objects on both sides some candidate pairs
  // must surface in several tasks; the reference-point rule drops the
  // duplicates (exactly — the result above already proved no pair was lost
  // or double-reported).
  EXPECT_GT(result.shard_stats.pairs_deduped, 0u);
}

TEST_F(ShardJoinTest, TinyCacheEvictsAndStaysExact) {
  ShardSet r_set, s_set;
  BuildSets("evict", 8, 8, &r_set, &s_set);
  ShardJoinOptions options;
  options.shard_cache_bytes = 1;  // floor: only the pinned pair stays
  options.join.num_threads = 2;
  const ShardJoinResult result =
      ShardedFindRelation(Method::kPC, r_set, s_set, options);
  ExpectMatchesReference(result);
  EXPECT_GT(result.shard_stats.shards_evicted, 0u);
  EXPECT_GT(result.shard_stats.cache_peak_bytes, 0u);
}

TEST_F(ShardJoinTest, DeterministicAcrossRepeatedRuns) {
  ShardSet r_set, s_set;
  BuildSets("repeat", 5, 5, &r_set, &s_set);
  ShardJoinOptions options;
  options.shard_cache_bytes = size_t{2} << 20;
  options.join.num_threads = 3;
  const ShardJoinResult a =
      ShardedFindRelation(Method::kPC, r_set, s_set, options);
  const ShardJoinResult b =
      ShardedFindRelation(Method::kPC, r_set, s_set, options);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.pairs.size(), b.pairs.size());
  EXPECT_TRUE(a.pairs == b.pairs);
  EXPECT_TRUE(a.relations == b.relations);
}

TEST_F(ShardJoinTest, CancellationYieldsValidAnsweredSubset) {
  ShardSet r_set, s_set;
  BuildSets("cancel", 4, 4, &r_set, &s_set);

  ExecContext exec;
  exec.SetCheckInHook([](ExecContext& ctx, uint64_t ordinal) {
    if (ordinal == 60) ctx.Cancel();
  });
  ShardJoinOptions options;
  options.join.num_threads = 1;
  options.join.exec = &exec;
  const ShardJoinResult result =
      ShardedFindRelation(Method::kPC, r_set, s_set, options);
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  // Loss-less partial contract across the scheduler: fewer pairs than the
  // full run, every reported one final and identical to the reference.
  EXPECT_LT(result.pairs.size(), reference_.pairs.size());
  ASSERT_EQ(result.pairs.size(), result.relations.size());
  for (size_t i = 0; i < result.pairs.size(); ++i) {
    if (i > 0) {
      EXPECT_TRUE(result.pairs[i - 1] < result.pairs[i])
          << "partial result not strictly sorted at " << i;
    }
    EXPECT_EQ(result.relations[i], reference_.Of(result.pairs[i]));
  }
}

TEST_F(ShardJoinTest, MemoryBudgetTripSurfacesResourceExhausted) {
  ShardSet r_set, s_set;
  BuildSets("budget", 4, 4, &r_set, &s_set);

  ExecContext exec;
  exec.SetMemoryBudget(size_t{64} << 10);  // far below one shard pair
  ShardJoinOptions options;
  options.join.num_threads = 1;
  options.join.exec = &exec;
  const ShardJoinResult result =
      ShardedFindRelation(Method::kPC, r_set, s_set, options);
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  // Whatever was answered before the trip must still be exact.
  for (size_t i = 0; i < result.pairs.size(); ++i) {
    EXPECT_EQ(result.relations[i], reference_.Of(result.pairs[i]));
  }
}

TEST_F(ShardJoinTest, BuildShardSetReportsPartitionAndStats) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/shard_join_build";
  PartitionOptions poptions;
  poptions.target_tiles = 4;
  TilePartition partition;
  ShardWriteStats stats;
  ASSERT_TRUE(BuildShardSet(dir, scenario_.r.objects, r_cstore_, poptions,
                            &partition, &stats)
                  .ok());
  EXPECT_EQ(stats.tiles, partition.Tiles());
  EXPECT_GT(stats.bytes_written, 0u);
  ShardSet set;
  ASSERT_TRUE(ShardSet::Open(dir, &set).ok());
  EXPECT_TRUE(set.Grid() == partition.grid);
  EXPECT_EQ(set.TotalObjects(), scenario_.r.objects.size());
  EXPECT_GT(set.TotalShardBytes(), 0u);
}

}  // namespace
}  // namespace stj
