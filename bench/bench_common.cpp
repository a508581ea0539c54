#include "bench/bench_common.h"

#include <cstdlib>
#include <cstring>

#include "src/topology/parallel.h"
#include "src/util/timer.h"

namespace stj::bench {

BenchOptions BenchOptions::Parse(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      options.scale = std::atof(arg + 8);
    } else if (std::strncmp(arg, "--grid-order=", 13) == 0) {
      options.grid_order = static_cast<uint32_t>(std::atoi(arg + 13));
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      options.seed = static_cast<uint64_t>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      options.threads = static_cast<unsigned>(std::atoi(arg + 10));
    } else if (std::strcmp(arg, "--time-stages") == 0) {
      options.time_stages = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf(
          "usage: %s [--scale=X] [--grid-order=N] [--seed=S]\n"
          "          [--threads=T] [--time-stages]\n"
          "  --scale       dataset size multiplier (default 1.0)\n"
          "  --grid-order  log2 of raster grid resolution (default 12)\n"
          "  --seed        generator seed (default 7)\n"
          "  --threads     worker threads (default 1; 0 = all cores)\n"
          "  --time-stages per-pair stage timers (filter/refine seconds)\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", arg);
      std::exit(1);
    }
  }
  return options;
}

ScenarioData BuildScenarioVerbose(const std::string& name,
                                  const BenchOptions& options) {
  std::printf("[build] scenario %s (scale=%.3g, grid=2^%u, seed=%llu)...\n",
              name.c_str(), options.scale, options.grid_order,
              static_cast<unsigned long long>(options.seed));
  std::fflush(stdout);
  Timer timer;
  ScenarioData scenario = BuildScenario(name, options.ToScenarioOptions());
  std::printf(
      "[build]   %s: |R|=%zu (%zu vtx), |S|=%zu (%zu vtx), candidates=%zu "
      "(%.1fs, %.2fs APRIL preprocess)\n",
      name.c_str(), scenario.r.objects.size(), scenario.r.TotalVertices(),
      scenario.s.objects.size(), scenario.s.TotalVertices(),
      scenario.candidates.size(), timer.ElapsedSeconds(),
      scenario.preprocess_seconds);
  std::fflush(stdout);
  return scenario;
}

FindRelationRun RunFindRelation(Method method, const ScenarioData& scenario,
                                const std::vector<CandidatePair>& pairs,
                                bool time_stages, unsigned threads) {
  FindRelationRun run;
  run.relation_histogram.assign(de9im::kNumRelations, 0);
  Timer timer;
  const ParallelJoinResult result = ParallelFindRelation(
      method, scenario.RView(), scenario.SView(), pairs,
      JoinOptions{.num_threads = threads, .time_stages = time_stages});
  for (const de9im::Relation rel : result.relations) {
    ++run.relation_histogram[static_cast<size_t>(rel)];
  }
  run.stats = result.stats;
  run.seconds = timer.ElapsedSeconds();
  run.pairs_per_second =
      run.seconds > 0 ? static_cast<double>(pairs.size()) / run.seconds : 0.0;
  return run;
}

void PrintTitle(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

const std::vector<Method>& AllMethods() {
  static const std::vector<Method> kMethods = {Method::kST2, Method::kOP2,
                                               Method::kApril, Method::kPC};
  return kMethods;
}

}  // namespace stj::bench
