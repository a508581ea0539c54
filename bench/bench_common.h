#pragma once

// Shared plumbing for the paper-reproduction harnesses: command-line
// options, scenario construction with progress output, and table printing.
// The harnesses print the paper's tables and figures for reading; the
// end-to-end performance record is perfbench/ (perfbench/README.md).

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
  /// Worker threads per run (--threads=N). 0 = hardware concurrency.
  unsigned threads = 1;
  /// Enables per-pair stage timers (--time-stages): fills
  /// PipelineStats::filter_seconds / refine_seconds at a small per-pair
  /// overhead, so throughput-focused runs leave it off.
  bool time_stages = false;

  /// Parses the flags above; exits on --help or unknown arguments.
  static BenchOptions Parse(int argc, char** argv);

  ScenarioOptions ToScenarioOptions() const {
    ScenarioOptions options;
    options.scale = scale;
    options.grid_order = grid_order;
    options.seed = seed;
    return options;
  }
};

/// Builds a scenario, printing build progress and summary statistics.
ScenarioData BuildScenarioVerbose(const std::string& name,
                                  const BenchOptions& options);

/// Runs find-relation over all candidate pairs with \p method through
/// ParallelFindRelation on \p threads workers and returns the throughput in
/// pairs/second. The relations, histogram, and stat counters are identical
/// at every thread count; the histogram is indexed by Relation value.
struct FindRelationRun {
  double seconds = 0.0;
  double pairs_per_second = 0.0;
  PipelineStats stats;
  std::vector<uint64_t> relation_histogram;  // size kNumRelations
};
FindRelationRun RunFindRelation(Method method, const ScenarioData& scenario,
                                const std::vector<CandidatePair>& pairs,
                                bool time_stages = false,
                                unsigned threads = 1);

/// Prints a horizontal rule and a centred title.
void PrintTitle(const std::string& title);

/// All four methods in presentation order.
const std::vector<Method>& AllMethods();

}  // namespace stj::bench
