#include "src/topology/shard_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/datasets/scenarios.h"
#include "src/util/exec_context.h"
#include "tests/robustness/corrupter.h"
#include "tests/test_support.h"

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

  ~ShardJoinTest() override {
    std::error_code ignored;
    for (const std::string& dir : dirs_) {
      std::filesystem::remove_all(dir, ignored);
    }
  }

  // A scratch directory of this test (test::TempPath), removed afterwards.
  std::string Dir(const std::string& name) {
    dirs_.push_back(test::TempPath("shard_join_" + name));
    return dirs_.back();
  }

  // Writes both shard sets under a test-unique directory and opens them.
  void BuildSets(const std::string& name, uint32_t r_tiles, uint32_t s_tiles,
                 ShardSet* r_set, ShardSet* s_set) {
    const std::string dir = Dir(name);
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
  std::vector<std::string> dirs_;
};

using test::Oversubscribed;

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
    bool all_resident;
  };
  // sweep_d is one task: its joins get every thread.
  const TileConfig tile_configs[] = {{"sweep_a", 4, 6},
                                     {"sweep_b", 9, 4},
                                     {"sweep_c", 2, 12},
                                     {"sweep_d", 1, 1}};
  const RunConfig run_configs[] = {
      {size_t{32} << 10, 1, false},  // thrash the cache, serial loop
      {size_t{256} << 20, 3, true},  // all resident, parallel
      {size_t{1} << 20, 2, false},   // tight cache, parallel
      {size_t{256} << 20, 4, true},
      {size_t{1} << 20, test::HardwareThreads(), false},
      {size_t{256} << 20, Oversubscribed(), true},
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
      if (rc.all_resident) {
        // Each tile is loaded once and never evicted.
        EXPECT_EQ(result.shard_stats.shards_evicted, 0u);
        EXPECT_EQ(result.shard_stats.shard_loads, tc.r_tiles + tc.s_tiles);
      }
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

TEST_F(ShardJoinTest, CorruptTileGivesTheSameStatusAtEveryThreadCount) {
  // Two corrupt R tiles: the Status is the lowest failing task's, and the
  // answers are those of the tasks before it, whatever the other workers
  // were running when the loads failed.
  ShardSet r_set, s_set;
  BuildSets("corrupt", 6, 4, &r_set, &s_set);
  for (const uint32_t tile : {1u, 4u}) {
    std::fstream file(r_set.TilePath(tile),
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open()) << r_set.TilePath(tile);
    file.put('X');  // the "SHRD" magic
  }
  ShardJoinOptions options;
  options.shard_cache_bytes = size_t{1} << 20;
  options.join.num_threads = 1;
  const ShardJoinResult serial =
      ShardedFindRelation(Method::kPC, r_set, s_set, options);
  ASSERT_FALSE(serial.status.ok());
  EXPECT_EQ(serial.status.code(), StatusCode::kDataLoss);
  EXPECT_LT(serial.pairs.size(), reference_.pairs.size());
  for (size_t i = 0; i < serial.pairs.size(); ++i) {
    EXPECT_EQ(serial.relations[i], reference_.Of(serial.pairs[i]));
  }
  for (const unsigned threads : {4u, 4u, Oversubscribed()}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    options.join.num_threads = threads;
    const ShardJoinResult run =
        ShardedFindRelation(Method::kPC, r_set, s_set, options);
    EXPECT_EQ(run.status.ToString(), serial.status.ToString());
    EXPECT_TRUE(run.pairs == serial.pairs);
    EXPECT_TRUE(run.relations == serial.relations);
  }
}

TEST_F(ShardJoinTest, EachMajorShardIsMappedOnceAtOneThread) {
  // Tasks are grouped by the tile of the side with the larger shards, so
  // with only the running task's shards resident (a 1-byte budget) each
  // major shard is mapped once, and every task maps at most one minor
  // shard.
  ShardSet r_set, s_set;
  BuildSets("major", 16, 9, &r_set, &s_set);
  ShardJoinOptions options;
  options.shard_cache_bytes = 1;
  options.join.num_threads = 1;
  const ShardJoinResult result =
      ShardedFindRelation(Method::kPC, r_set, s_set, options);
  ExpectMatchesReference(result);
  const bool r_major =
      static_cast<double>(r_set.TotalShardBytes()) / r_set.Tiles() >=
      static_cast<double>(s_set.TotalShardBytes()) / s_set.Tiles();
  const ShardSet& major = r_major ? r_set : s_set;
  const ShardSet& minor = r_major ? s_set : r_set;
  uint64_t largest_minor = 0;
  for (uint32_t t = 0; t < minor.Tiles(); ++t) {
    largest_minor = std::max(largest_minor, minor.Tile(t).file_bytes);
  }
  EXPECT_LE(result.shard_stats.bytes_mapped,
            major.TotalShardBytes() +
                result.shard_stats.tasks * largest_minor)
      << (r_major ? "R" : "S") << " is the major side";
}

TEST_F(ShardJoinTest, BuildShardSetReportsPartitionAndStats) {
  const std::string dir = Dir("build");
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

TEST(ShardRecordSumTest, EveryListByteFlipFailsTheLoadOrKeepsTheLinks) {
  // Per-record isolation: flip, one at a time, every byte of one R tile's
  // list segments — headers, payload, offset tables, interval counts,
  // usable flags and record sums. Each flip must either fail the tile's
  // load with kDataLoss (the structural checks) or leave every pair's
  // relation as it was: a record that fails its sum refines its pairs.
  ScenarioOptions options;
  options.scale = 0.01;
  options.grid_order = 10;
  const ScenarioData scenario = BuildScenario("OLE-OPE", options);
  const std::string dir = test::TempPath("record_sums");
  PartitionOptions poptions;
  poptions.target_tiles = 8;
  ASSERT_TRUE(BuildShardSet(dir + "/r", scenario.r.objects,
                            Compress(scenario.r_april), poptions)
                  .ok());
  poptions.target_tiles = 2;
  ASSERT_TRUE(BuildShardSet(dir + "/s", scenario.s.objects,
                            Compress(scenario.s_april), poptions)
                  .ok());
  ShardSet r_set, s_set;
  ASSERT_TRUE(ShardSet::Open(dir + "/r", &r_set).ok());
  ASSERT_TRUE(ShardSet::Open(dir + "/s", &s_set).ok());
  ShardJoinOptions join_options;
  join_options.join.num_threads = 1;
  const ShardJoinResult reference =
      ShardedFindRelation(Method::kPC, r_set, s_set, join_options);
  ASSERT_TRUE(reference.status.ok());
  ASSERT_EQ(reference.stats.fallback_refined, 0u);

  constexpr uint32_t kListSegments[] = {
      shard::kAprilHeaders,    shard::kAprilBytes,
      shard::kAprilHdrBegin,   shard::kAprilPHdrBegin,
      shard::kAprilByteBegin,  shard::kAprilPByteBegin,
      shard::kAprilCIntervals, shard::kAprilPIntervals,
      shard::kAprilUsable,     shard::kAprilRecordFnv};
  const auto list_bytes = [&](const std::string& file) {
    uint64_t total = 0;
    for (const uint32_t kind : kListSegments) {
      uint64_t at = 0, bytes = 0;
      EXPECT_TRUE(test::FindShardSegment(file.data(), kind, &at, &bytes));
      total += bytes;
    }
    return total;
  };
  // The sweep runs on the tile with the fewest list bytes among those
  // whose lists the join reads: with every record of a tile flagged
  // unusable, some of its pairs must refine.
  const auto lists_are_read = [&](uint32_t t) {
    const std::string file = test::ReadFileBytes(r_set.TilePath(t));
    uint64_t at = 0, bytes = 0;
    EXPECT_TRUE(test::FindShardSegment(file.data(), shard::kAprilUsable, &at,
                                       &bytes));
    std::string unusable = file;
    std::fill_n(unusable.begin() + static_cast<std::ptrdiff_t>(at), bytes,
                '\0');
    test::WriteFileBytes(r_set.TilePath(t), unusable);
    const ShardJoinResult probe =
        ShardedFindRelation(Method::kPC, r_set, s_set, join_options);
    test::WriteFileBytes(r_set.TilePath(t), file);
    return probe.status.ok() && probe.stats.fallback_refined != 0;
  };
  uint32_t tile = r_set.Tiles();
  uint64_t fewest = UINT64_MAX;
  for (uint32_t t = 0; t < r_set.Tiles(); ++t) {
    const uint64_t bytes = list_bytes(test::ReadFileBytes(r_set.TilePath(t)));
    if (bytes < fewest && lists_are_read(t)) {
      tile = t;
      fewest = bytes;
    }
  }
  ASSERT_LT(tile, r_set.Tiles());

  const std::string path = r_set.TilePath(tile);
  const std::string original = test::ReadFileBytes(path);
  size_t load_failures = 0;
  size_t refined_flips = 0;
  for (const uint32_t kind : kListSegments) {
    uint64_t at = 0, bytes = 0;
    ASSERT_TRUE(test::FindShardSegment(original.data(), kind, &at, &bytes));
    for (uint64_t offset = at; offset < at + bytes; ++offset) {
      SCOPED_TRACE(::testing::Message() << "segment " << kind << " byte "
                                        << offset - at);
      test::WriteFileBytes(path, test::WithFlippedByte(original, offset));
      LoadedShard shard;
      const Status load = r_set.LoadTile(tile, &shard);
      if (!load.ok()) {
        ASSERT_EQ(load.code(), StatusCode::kDataLoss) << load.ToString();
        ++load_failures;
        continue;
      }
      const ShardJoinResult result =
          ShardedFindRelation(Method::kPC, r_set, s_set, join_options);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      ASSERT_TRUE(result.pairs == reference.pairs);
      ASSERT_TRUE(result.relations == reference.relations);
      if (result.stats.fallback_refined != 0) ++refined_flips;
    }
  }
  test::WriteFileBytes(path, original);
  // Both defences were exercised.
  EXPECT_GT(load_failures, 0u);
  EXPECT_GT(refined_flips, 0u);
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

}  // namespace
}  // namespace stj
