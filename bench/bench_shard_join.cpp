// Extension harness (no paper counterpart): cost of going out-of-core with
// the tile-sharded join (shard_scheduler.h) against the single-arena
// in-memory join on the same compressed APRIL inputs.
//
// Scenario TC-TZ — the nested counties/zip-codes tessellation — is the
// shard layer's acceptance workload: dense candidate sets, heavy boundary
// replication between the two tilings, and enough APRIL payload that a
// quarter-budget cache genuinely evicts. For each thread count the harness
// runs three legs, median-of-N each:
//
//   single_arena    ParallelFindRelation over the whole compressed store —
//                   the reference join and the throughput denominator.
//   all_resident    the sharded scheduler with a cache budget comfortably
//                   above the total shard bytes: every shard loads once,
//                   nothing evicts. Measures the pure sharding overhead
//                   (task loop, local MbrJoin, dedup, result merge).
//   quarter_budget  the same join with the cache clamped to 25% of the
//                   total shard bytes — the out-of-core regime: tasks
//                   continually evict and reload through the LRU.
//
// Every sharded repetition is verified pair-for-pair and relation-for-
// relation against the single-arena reference (identical=1 in the JSON
// record); a divergence aborts the harness. tools/bench_json.sh gates
// BENCH_PR9.json on: all_resident throughput >= 0.9x single_arena,
// quarter_budget wall time <= 2x all_resident, identical=1 everywhere.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/topology/shard_scheduler.h"

namespace stj::bench {
namespace {

// Median-of-N timing: on a shared host, best-of systematically favours
// whichever leg gets one lucky scheduling window; the median is stable
// against both lucky and unlucky outliers. Repetitions are interleaved
// across the three legs (rep-outer, leg-inner): slow drift in background
// load then shifts all legs together instead of biasing whichever leg ran
// in a quiet window.
constexpr int kRepetitions = 5;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The single-arena reference, re-sorted by (r, s) to match the sharded
// result's canonical order.
struct Reference {
  std::vector<CandidatePair> pairs;
  std::vector<de9im::Relation> relations;
  double seconds = 0.0;
  double pairs_per_sec = 0.0;
};

// One timed single-arena join; the result is kept so the first repetition
// can seed the reference decisions (the join is deterministic, so one
// re-sort suffices for all repetitions).
double RunArenaOnce(const ScenarioData& scenario,
                    const CompressedScenarioStores& stores, unsigned threads,
                    ParallelJoinResult* out) {
  DatasetView r_view;
  r_view.objects = &scenario.r.objects;
  r_view.cstore = &stores.r_cstore;
  DatasetView s_view;
  s_view.objects = &scenario.s.objects;
  s_view.cstore = &stores.s_cstore;
  JoinOptions options;
  options.num_threads = threads;

  const double start = Now();
  *out = ParallelFindRelation(Method::kPC, r_view, s_view,
                              scenario.candidates, options);
  const double seconds = Now() - start;
  if (!out->status.ok()) {
    std::fprintf(stderr, "single-arena join failed: %s\n",
                 out->status.message().c_str());
    std::exit(1);
  }
  return seconds;
}

// Re-sorts the single-arena decisions into the sharded join's canonical
// (r, s) order.
Reference MakeReference(const ScenarioData& scenario,
                        const ParallelJoinResult& result) {
  Reference reference;
  std::vector<size_t> order(scenario.candidates.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return scenario.candidates[a] < scenario.candidates[b];
  });
  reference.pairs.reserve(order.size());
  reference.relations.reserve(order.size());
  for (const size_t i : order) {
    reference.pairs.push_back(scenario.candidates[i]);
    reference.relations.push_back(result.relations[i]);
  }
  return reference;
}

bool Identical(const ShardJoinResult& result, const Reference& reference) {
  return result.status.ok() && result.pairs == reference.pairs &&
         result.relations == reference.relations;
}

double RunShardedOnce(const ShardSet& r_set, const ShardSet& s_set,
                      unsigned threads, size_t cache_bytes,
                      const Reference& reference, const char* leg_name,
                      ShardStats* stats) {
  ShardJoinOptions options;
  options.join.num_threads = threads;
  options.shard_cache_bytes = cache_bytes;

  const double start = Now();
  const ShardJoinResult result =
      ShardedFindRelation(Method::kPC, r_set, s_set, options);
  const double seconds = Now() - start;
  if (!Identical(result, reference)) {
    std::fprintf(stderr,
                 "FATAL: sharded %s leg diverged from the single-arena "
                 "join at %u threads\n",
                 leg_name, threads);
    std::exit(1);
  }
  *stats = result.shard_stats;
  return seconds;
}

void Run(const BenchOptions& options) {
  const std::string scenario_name = "TC-TZ";
  const ScenarioData scenario = BuildScenarioVerbose(scenario_name, options);
  JsonReporter reporter(options.json_path);

  const CompressedScenarioStores stores = BuildCompressedStores(scenario);

  // Persist both shard sets once (preprocessing, like the APRIL build —
  // excluded from join timing). ~16 tiles per side gives a few hundred
  // tile-pair tasks and shards far smaller than the quarter budget.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "stj_bench_shard_join")
          .string();
  PartitionOptions poptions;
  poptions.target_tiles = 16;
  TilePartition r_part, s_part;
  if (Status st = BuildShardSet(dir + "/r", scenario.r.objects,
                                stores.r_cstore, poptions, &r_part);
      !st.ok()) {
    std::fprintf(stderr, "shard build failed: %s\n", st.message().c_str());
    std::exit(1);
  }
  if (Status st = BuildShardSet(dir + "/s", scenario.s.objects,
                                stores.s_cstore, poptions, &s_part);
      !st.ok()) {
    std::fprintf(stderr, "shard build failed: %s\n", st.message().c_str());
    std::exit(1);
  }
  ShardSet r_set, s_set;
  if (!ShardSet::Open(dir + "/r", &r_set).ok() ||
      !ShardSet::Open(dir + "/s", &s_set).ok()) {
    std::fprintf(stderr, "shard open failed\n");
    std::exit(1);
  }
  const uint64_t shard_bytes =
      r_set.TotalShardBytes() + s_set.TotalShardBytes();
  const size_t all_resident_cache = static_cast<size_t>(2 * shard_bytes);
  const size_t quarter_cache =
      std::max<size_t>(1, static_cast<size_t>(shard_bytes / 4));
  std::printf("[shard]   R %u tiles / S %u tiles, %.1f MB total; "
              "quarter budget %.1f MB\n",
              r_set.Tiles(), s_set.Tiles(), shard_bytes / (1024.0 * 1024.0),
              quarter_cache / (1024.0 * 1024.0));

  PrintTitle("Out-of-core tile-sharded join vs single-arena (P+C, "
             "compressed store)");
  std::printf("%-8s %-15s %10s %14s %9s %9s %9s %10s\n", "threads", "leg",
              "seconds", "pairs/s", "loads", "hits", "evicted", "identical");

  const struct {
    const char* name;
    size_t cache;
  } legs[] = {{"all_resident", all_resident_cache},
              {"quarter_budget", quarter_cache}};
  constexpr size_t kLegs = std::size(legs);

  for (const unsigned threads : options.threads) {
    // Rep-outer, leg-inner: every leg samples the same host-load windows.
    Reference reference;
    std::vector<double> arena_seconds;
    std::vector<double> leg_seconds[kLegs];
    ShardStats leg_stats[kLegs];
    for (int rep = 0; rep < kRepetitions; ++rep) {
      ParallelJoinResult arena_result;
      arena_seconds.push_back(
          RunArenaOnce(scenario, stores, threads, &arena_result));
      if (rep == 0) reference = MakeReference(scenario, arena_result);
      for (size_t leg = 0; leg < kLegs; ++leg) {
        leg_seconds[leg].push_back(RunShardedOnce(r_set, s_set, threads,
                                                  legs[leg].cache, reference,
                                                  legs[leg].name,
                                                  &leg_stats[leg]));
      }
    }

    reference.seconds = Median(arena_seconds);
    reference.pairs_per_sec =
        static_cast<double>(reference.pairs.size()) / reference.seconds;
    std::printf("%-8u %-15s %10.3f %14.0f %9s %9s %9s %10s\n", threads,
                "single_arena", reference.seconds, reference.pairs_per_sec,
                "-", "-", "-", "-");
    JsonRecord arena;
    arena.Set("bench", "shard_join")
        .Set("scenario", scenario_name)
        .Set("method", "pc")
        .Set("threads", threads)
        .Set("leg", "single_arena")
        .Set("cache_mb", 0.0)
        .Set("shard_bytes_mb", shard_bytes / (1024.0 * 1024.0))
        .Set("seconds", reference.seconds)
        .Set("pairs", static_cast<uint64_t>(reference.pairs.size()))
        .Set("pairs_per_sec", reference.pairs_per_sec)
        .Set("identical", uint64_t{1});
    reporter.Add(arena);

    const double all_resident_seconds = Median(leg_seconds[0]);
    for (size_t leg = 0; leg < kLegs; ++leg) {
      const double seconds = Median(leg_seconds[leg]);
      const double pairs_per_sec =
          static_cast<double>(reference.pairs.size()) / seconds;
      const ShardStats& stats = leg_stats[leg];
      std::printf("%-8u %-15s %10.3f %14.0f %9llu %9llu %9llu %10s\n",
                  threads, legs[leg].name, seconds, pairs_per_sec,
                  static_cast<unsigned long long>(stats.shard_loads),
                  static_cast<unsigned long long>(stats.shard_hits),
                  static_cast<unsigned long long>(stats.shards_evicted),
                  "yes");
      JsonRecord record;
      record.Set("bench", "shard_join")
          .Set("scenario", scenario_name)
          .Set("method", "pc")
          .Set("threads", threads)
          .Set("leg", legs[leg].name)
          .Set("cache_mb", legs[leg].cache / (1024.0 * 1024.0))
          .Set("shard_bytes_mb", shard_bytes / (1024.0 * 1024.0))
          .Set("tiles_r", r_set.Tiles())
          .Set("tiles_s", s_set.Tiles())
          .Set("tasks", stats.tasks)
          .Set("shard_loads", stats.shard_loads)
          .Set("shard_hits", stats.shard_hits)
          .Set("shards_evicted", stats.shards_evicted)
          .Set("cache_peak_mb", stats.cache_peak_bytes / (1024.0 * 1024.0))
          .Set("pairs_deduped", stats.pairs_deduped)
          .Set("seconds", seconds)
          .Set("pairs", static_cast<uint64_t>(reference.pairs.size()))
          .Set("pairs_per_sec", pairs_per_sec)
          .Set("speedup_vs_single_arena",
               pairs_per_sec / reference.pairs_per_sec)
          .Set("slowdown_vs_all_resident",
               all_resident_seconds > 0.0 ? seconds / all_resident_seconds
                                          : 1.0)
          .Set("identical", uint64_t{1});
      reporter.Add(record);
    }
  }

  if (!reporter.Write()) std::exit(1);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace stj::bench

int main(int argc, char** argv) {
  stj::bench::Run(stj::bench::BenchOptions::Parse(argc, argv));
  return 0;
}
