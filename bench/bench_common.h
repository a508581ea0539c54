#pragma once

// Shared plumbing for the paper-reproduction harnesses: command-line
// options, scenario construction with progress output, table printing, and
// the machine-readable JSON report (--json=PATH) that BENCH_*.json files at
// the repo root are generated from.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/datasets/scenarios.h"
#include "src/topology/pipeline.h"

namespace stj::bench {

/// Options common to all harnesses. Defaults reproduce the scaled-down
/// experiment suite; pass --scale to grow or shrink every dataset.
struct BenchOptions {
  double scale = 1.0;
  uint32_t grid_order = 12;
  uint64_t seed = 7;
  /// Worker threads per run (--threads=N or --threads=N1,N2,...; harnesses
  /// that do not sweep use the first entry). 0 = hardware concurrency.
  std::vector<unsigned> threads = {1};
  /// Enables per-pair stage timers (--time-stages): fills
  /// PipelineStats::filter_seconds / refine_seconds at a small per-pair
  /// overhead, so throughput-focused runs leave it off.
  bool time_stages = false;
  /// Per-worker PreparedPolygon cache budget (--prepared-cache-mb=N, in
  /// megabytes; 0 disables the cache and restores one-shot refinement).
  size_t prepared_cache_bytes = kDefaultPreparedCacheBytes;
  /// Serve approximations from the blocked-codec CompressedAprilStore
  /// instead of flat vectors (--compressed); harnesses that support it run
  /// their sweep against the compressed storage form.
  bool compressed = false;
  /// When non-empty (--json=PATH), harnesses append records to a
  /// JsonReporter and write them to this path on exit.
  std::string json_path;

  /// Parses the flags above; exits on --help or unknown arguments.
  static BenchOptions Parse(int argc, char** argv);

  unsigned FirstThreads() const { return threads.empty() ? 1u : threads[0]; }

  ScenarioOptions ToScenarioOptions() const {
    ScenarioOptions options;
    options.scale = scale;
    options.grid_order = grid_order;
    options.seed = seed;
    return options;
  }
};

/// One flat record of the JSON report: insertion-ordered key/value fields.
/// Values are rendered immediately, so a record is cheap to copy and the
/// reporter is just a list of strings.
class JsonRecord {
 public:
  JsonRecord& Set(const std::string& key, const std::string& value);
  JsonRecord& Set(const std::string& key, const char* value);
  JsonRecord& Set(const std::string& key, double value);
  JsonRecord& Set(const std::string& key, uint64_t value);
  JsonRecord& Set(const std::string& key, unsigned value) {
    return Set(key, static_cast<uint64_t>(value));
  }

  /// The record as a JSON object, e.g. {"bench":"fig7","threads":1}.
  std::string ToJson() const;

 private:
  std::vector<std::string> fields_;  // pre-rendered "key":value
};

/// Collects JsonRecords and writes them as one JSON array. Disabled (every
/// call a no-op) when constructed with an empty path, so harnesses can
/// always call Add/Write unconditionally.
class JsonReporter {
 public:
  explicit JsonReporter(std::string path) : path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }
  void Add(const JsonRecord& record);

  /// Writes `[record, record, ...]` to the path; true on success (and when
  /// disabled). Prints the path and record count to stderr when enabled.
  bool Write() const;

 private:
  std::string path_;
  std::vector<std::string> records_;
};

/// Builds a scenario, printing build progress and summary statistics.
ScenarioData BuildScenarioVerbose(const std::string& name,
                                  const BenchOptions& options);

/// Runs find-relation over all candidate pairs with \p method and returns
/// the throughput in pairs/second. Outcome counts land in \p pipeline's
/// stats; the returned relation histogram is indexed by Relation value.
/// With threads != 1 the run goes through ParallelFindRelation (work-
/// stealing over Hilbert-ordered blocks); the relations, histogram, and
/// stat counters are identical to the single-threaded run.
struct FindRelationRun {
  double seconds = 0.0;
  double pairs_per_second = 0.0;
  PipelineStats stats;
  std::vector<uint64_t> relation_histogram;  // size kNumRelations
};
FindRelationRun RunFindRelation(Method method, const ScenarioData& scenario,
                                const std::vector<CandidatePair>& pairs,
                                bool time_stages = false,
                                unsigned threads = 1,
                                size_t prepared_cache_bytes =
                                    kDefaultPreparedCacheBytes);

/// Full-knob configuration for RunFindRelation: the cache budgets and,
/// optionally, a compressed storage form for both sides.
struct RunConfig {
  bool time_stages = false;
  unsigned threads = 1;
  size_t prepared_cache_bytes = kDefaultPreparedCacheBytes;
  /// Per-worker decoded-record cache budget for compressed inputs.
  size_t decoded_cache_bytes = kDefaultDecodedCacheBytes;
  /// When both are set, the run reads approximations from the compressed
  /// stores instead of the scenario's flat vectors (results identical).
  const CompressedAprilStore* r_cstore = nullptr;
  const CompressedAprilStore* s_cstore = nullptr;
};
FindRelationRun RunFindRelation(Method method, const ScenarioData& scenario,
                                const std::vector<CandidatePair>& pairs,
                                const RunConfig& config);

/// The blocked-codec storage form of a scenario's approximations, for
/// compressed-store bench legs. Keeps the intermediate AprilStores alive —
/// CompressedAprilStore arenas are self-contained, but the flat stores are
/// handy for size reporting.
struct CompressedScenarioStores {
  AprilStore r_store;
  AprilStore s_store;
  CompressedAprilStore r_cstore;
  CompressedAprilStore s_cstore;
};
CompressedScenarioStores BuildCompressedStores(const ScenarioData& scenario);

/// Refined-pair throughput of a run: DE-9IM computations per second. The
/// prepared cache only touches refinement, so this is the metric its
/// speedups are quoted in (candidate-pair throughput dilutes them with
/// filter-decided pairs).
double RefinedPerSecond(const FindRelationRun& run);

/// Adds the prepared-geometry cache telemetry of a run to a JSON record:
/// prepared_cache_mb, prepared_hits, prepared_misses, prepared_hit_rate
/// (0 when no lookups happened), and — when stage timing was on —
/// prepared_build_seconds.
void SetPreparedStats(JsonRecord* record, const PipelineStats& stats,
                      size_t prepared_cache_bytes, bool time_stages);

/// Prints a horizontal rule and a centred title.
void PrintTitle(const std::string& title);

/// All four methods in presentation order.
const std::vector<Method>& AllMethods();

}  // namespace stj::bench
