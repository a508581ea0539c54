// Reproduces Figure 7: (a) find-relation throughput (pairs/second) of
// ST2 / OP2 / APRIL / P+C on every scenario, and (b) the percentage of
// undetermined pairs (pairs needing DE-9IM refinement) per method.
//
// Expected shape (Sec. 4.2): OP2 ~ ST2 (refinement dominates), APRIL several
// times faster (catches raster-disjoint pairs), P+C fastest — up to an order
// of magnitude over ST2 — with the lowest undetermined share.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace stj::bench {
namespace {

struct ScenarioResult {
  std::string name;
  double throughput[4];
  double undetermined[4];
  double filter_seconds[4];
  double refine_seconds[4];
  std::vector<uint64_t> histogram;  // from the P+C run (all methods agree)
};

void Run(const BenchOptions& options) {
  std::vector<ScenarioResult> results;
  for (const std::string& name : ScenarioNames()) {
    const ScenarioData scenario = BuildScenarioVerbose(name, options);
    ScenarioResult result;
    result.name = name;
    for (size_t m = 0; m < AllMethods().size(); ++m) {
      const FindRelationRun run =
          RunFindRelation(AllMethods()[m], scenario, scenario.candidates,
                          options.time_stages, options.threads);
      result.throughput[m] = run.pairs_per_second;
      result.undetermined[m] = run.stats.UndeterminedPercent();
      result.filter_seconds[m] = run.stats.filter_seconds;
      result.refine_seconds[m] = run.stats.refine_seconds;
      if (AllMethods()[m] == Method::kPC) result.histogram = run.relation_histogram;
      std::printf("[run]   %-6s: %12.0f pairs/s, %5.1f%% undetermined\n",
                  ToString(AllMethods()[m]), run.pairs_per_second,
                  run.stats.UndeterminedPercent());
      std::fflush(stdout);
    }
    results.push_back(std::move(result));
  }

  PrintTitle("Figure 7(a): find relation throughput (pairs per second)");
  std::printf("%-10s %12s %12s %12s %12s %18s\n", "scenario", "ST2", "OP2",
              "APRIL", "P+C", "P+C/ST2 speedup");
  for (const ScenarioResult& r : results) {
    std::printf("%-10s %12.0f %12.0f %12.0f %12.0f %17.1fx\n", r.name.c_str(),
                r.throughput[0], r.throughput[1], r.throughput[2],
                r.throughput[3],
                r.throughput[0] > 0 ? r.throughput[3] / r.throughput[0] : 0.0);
  }

  PrintTitle("Figure 7(b): % of undetermined pairs (refined with DE-9IM)");
  std::printf("%-10s %12s %12s %12s %12s\n", "scenario", "ST2", "OP2", "APRIL",
              "P+C");
  for (const ScenarioResult& r : results) {
    std::printf("%-10s %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n", r.name.c_str(),
                r.undetermined[0], r.undetermined[1], r.undetermined[2],
                r.undetermined[3]);
  }

  if (options.time_stages) {
    // The per-method stage split (filter vs refinement CPU seconds) — only
    // meaningful when --time-stages armed the per-pair timers; before the
    // time_stages plumbing, parallel runs silently reported zeros here.
    PrintTitle("Stage seconds per scenario (filter / refine)");
    std::printf("%-10s %17s %17s %17s %17s\n", "scenario", "ST2", "OP2",
                "APRIL", "P+C");
    for (const ScenarioResult& r : results) {
      std::printf("%-10s", r.name.c_str());
      for (size_t m = 0; m < AllMethods().size(); ++m) {
        char cell[32];
        std::snprintf(cell, sizeof cell, "%.3f/%.3f", r.filter_seconds[m],
                      r.refine_seconds[m]);
        std::printf(" %17s", cell);
      }
      std::printf("\n");
    }
  }

  PrintTitle("Relation mix per scenario (diagnostic, not in the paper)");
  std::printf("%-10s", "scenario");
  for (int rel = 0; rel < de9im::kNumRelations; ++rel) {
    std::printf(" %11s", ToString(static_cast<de9im::Relation>(rel)));
  }
  std::printf("\n");
  for (const ScenarioResult& r : results) {
    std::printf("%-10s", r.name.c_str());
    for (const uint64_t count : r.histogram) {
      std::printf(" %11llu", static_cast<unsigned long long>(count));
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace stj::bench

int main(int argc, char** argv) {
  stj::bench::Run(stj::bench::BenchOptions::Parse(argc, argv));
  return 0;
}
