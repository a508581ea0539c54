// Reproduces Table 4 and Figure 8: the OLE-OPE candidate pairs are split
// into 10 equi-count complexity levels (by summed vertex count); per level we
// report (a) the share of pairs P+C leaves undetermined and (b) the time
// spent in OP2 refinement vs P+C's intermediate filter and refinement.
//
// Expected shape (Sec. 4.3): P+C's undetermined share falls sharply with
// complexity; OP2's refinement cost grows superlinearly while P+C's total
// stays nearly flat.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/datasets/workload.h"
#include "src/util/stats.h"

namespace stj::bench {
namespace {

constexpr size_t kLevels = 10;

void Run(const BenchOptions& options) {
  const ScenarioData scenario = BuildScenarioVerbose("OLE-OPE", options);
  const ComplexityLevels levels = GroupByComplexity(scenario, kLevels);

  PrintTitle("Table 4: OLE-OPE pairs grouped by complexity level");
  std::printf("%-16s %-22s %12s\n", "complexity level", "sum of vertices",
              "pair count");
  for (size_t level = 0; level < levels.ranges.size(); ++level) {
    char range[64];
    std::snprintf(range, sizeof range, "[%llu, %llu]",
                  static_cast<unsigned long long>(levels.ranges[level].first),
                  static_cast<unsigned long long>(levels.ranges[level].second));
    std::printf("%-16zu %-22s %12s\n", level + 1, range,
                FormatWithCommas(levels.pairs[level].size()).c_str());
  }

  struct LevelResult {
    double pc_undetermined;
    double op2_refine_seconds;
    double pc_filter_seconds;
    double pc_refine_seconds;
  };
  std::vector<LevelResult> per_level;
  for (size_t level = 0; level < levels.pairs.size(); ++level) {
    const FindRelationRun pc = RunFindRelation(
        Method::kPC, scenario, levels.pairs[level], /*time_stages=*/true);
    const FindRelationRun op2 = RunFindRelation(
        Method::kOP2, scenario, levels.pairs[level], /*time_stages=*/true);
    per_level.push_back(LevelResult{pc.stats.UndeterminedPercent(),
                                    op2.stats.refine_seconds,
                                    pc.stats.filter_seconds,
                                    pc.stats.refine_seconds});
    std::printf("[run] level %2zu: P+C undetermined %5.1f%%, OP2-REF %.3fs, "
                "P+C-IF %.3fs, P+C-REF %.3fs\n",
                level + 1, per_level.back().pc_undetermined,
                per_level.back().op2_refine_seconds,
                per_level.back().pc_filter_seconds,
                per_level.back().pc_refine_seconds);
    std::fflush(stdout);
  }

  PrintTitle("Figure 8(a): % of undetermined pairs (P+C) per complexity level");
  std::printf("%-8s %16s\n", "level", "undetermined");
  for (size_t level = 0; level < per_level.size(); ++level) {
    std::printf("%-8zu %15.1f%%\n", level + 1, per_level[level].pc_undetermined);
  }

  PrintTitle("Figure 8(b): stage cost (seconds) per complexity level");
  std::printf("%-8s %12s %12s %12s %12s\n", "level", "OP2-REF", "P+C-IF",
              "P+C-REF", "P+C total");
  for (size_t level = 0; level < per_level.size(); ++level) {
    const LevelResult& r = per_level[level];
    std::printf("%-8zu %12.4f %12.4f %12.4f %12.4f\n", level + 1,
                r.op2_refine_seconds, r.pc_filter_seconds, r.pc_refine_seconds,
                r.pc_filter_seconds + r.pc_refine_seconds);
  }

  // The data-access reduction the paper reports alongside Fig. 8: the share
  // of unique objects P+C never needs exact geometry for.
  std::vector<bool> r_touched(scenario.r.objects.size(), false);
  std::vector<bool> s_touched(scenario.s.objects.size(), false);
  std::vector<bool> r_needed(scenario.r.objects.size(), false);
  std::vector<bool> s_needed(scenario.s.objects.size(), false);
  Pipeline probe(Method::kPC, scenario.RView(), scenario.SView());
  for (const CandidatePair& pair : scenario.candidates) {
    r_touched[pair.r_idx] = true;
    s_touched[pair.s_idx] = true;
    const uint64_t refined_before = probe.Stats().refined;
    probe.FindRelation(pair.r_idx, pair.s_idx);
    if (probe.Stats().refined > refined_before) {
      r_needed[pair.r_idx] = true;
      s_needed[pair.s_idx] = true;
    }
  }
  auto count = [](const std::vector<bool>& v) {
    size_t n = 0;
    for (const bool b : v) n += b ? 1 : 0;
    return n;
  };
  const size_t touched = count(r_touched) + count(s_touched);
  const size_t needed = count(r_needed) + count(s_needed);
  PrintTitle("Data access (Sec. 4.3 text)");
  std::printf(
      "P+C loads exact geometry for %zu of %zu unique candidate objects "
      "(%.1f%%; OP2 loads 100%%)\n",
      needed, touched,
      touched > 0 ? 100.0 * static_cast<double>(needed) /
                        static_cast<double>(touched)
                  : 0.0);
}

}  // namespace
}  // namespace stj::bench

int main(int argc, char** argv) {
  stj::bench::Run(stj::bench::BenchOptions::Parse(argc, argv));
  return 0;
}
