#include "bench/bench_common.h"

#include <cstdlib>
#include <cstring>

#include "src/topology/parallel.h"
#include "src/util/timer.h"

namespace stj::bench {

namespace {

std::vector<unsigned> ParseThreadList(const char* arg) {
  std::vector<unsigned> threads;
  while (*arg != '\0') {
    char* end = nullptr;
    const long value = std::strtol(arg, &end, 10);
    if (end == arg || value < 0) {
      std::fprintf(stderr, "bad --threads list near '%s'\n", arg);
      std::exit(1);
    }
    threads.push_back(static_cast<unsigned>(value));
    arg = (*end == ',') ? end + 1 : end;
  }
  if (threads.empty()) threads.push_back(1);
  return threads;
}

/// Minimal JSON string escaping: the keys and values we emit are bench,
/// scenario, and method names, but stay correct for anything printable.
std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

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
      options.threads = ParseThreadList(arg + 10);
    } else if (std::strcmp(arg, "--time-stages") == 0) {
      options.time_stages = true;
    } else if (std::strncmp(arg, "--prepared-cache-mb=", 20) == 0) {
      options.prepared_cache_bytes =
          static_cast<size_t>(std::atoll(arg + 20)) << 20;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      options.json_path = arg + 7;
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf(
          "usage: %s [--scale=X] [--grid-order=N] [--seed=S]\n"
          "          [--threads=T[,T2,...]] [--time-stages] [--json=PATH]\n"
          "  --scale       dataset size multiplier (default 1.0)\n"
          "  --grid-order  log2 of raster grid resolution (default 12)\n"
          "  --seed        generator seed (default 7)\n"
          "  --threads     worker threads; a comma list sweeps (0 = all "
          "cores)\n"
          "  --time-stages per-pair stage timers (filter/refine seconds)\n"
          "  --prepared-cache-mb  per-worker prepared-geometry cache budget\n"
          "                in MB (default 32; 0 disables the cache)\n"
          "  --json        write machine-readable records to PATH\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", arg);
      std::exit(1);
    }
  }
  return options;
}

// Fields are assembled with += rather than operator+ chains: fewer
// temporaries, and the chained operator+(const char*, std::string&&) form
// trips GCC 12's -Wrestrict false positive (GCC PR105329) at -O2.
JsonRecord& JsonRecord::Set(const std::string& key, const std::string& value) {
  std::string field = "\"";
  field += JsonEscape(key);
  field += "\":\"";
  field += JsonEscape(value);
  field += "\"";
  fields_.push_back(std::move(field));
  return *this;
}

JsonRecord& JsonRecord::Set(const std::string& key, const char* value) {
  return Set(key, std::string(value));
}

JsonRecord& JsonRecord::Set(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  std::string field = "\"";
  field += JsonEscape(key);
  field += "\":";
  field += buf;
  fields_.push_back(std::move(field));
  return *this;
}

JsonRecord& JsonRecord::Set(const std::string& key, uint64_t value) {
  std::string field = "\"";
  field += JsonEscape(key);
  field += "\":";
  field += std::to_string(value);
  fields_.push_back(std::move(field));
  return *this;
}

std::string JsonRecord::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) out += ",";
    out += fields_[i];
  }
  out += "}";
  return out;
}

void JsonReporter::Add(const JsonRecord& record) {
  if (!enabled()) return;
  records_.push_back(record.ToJson());
}

bool JsonReporter::Write() const {
  if (!enabled()) return true;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[json] cannot write %s\n", path_.c_str());
    return false;
  }
  std::fputs("[\n", f);
  for (size_t i = 0; i < records_.size(); ++i) {
    std::fputs("  ", f);
    std::fputs(records_[i].c_str(), f);
    std::fputs(i + 1 < records_.size() ? ",\n" : "\n", f);
  }
  std::fputs("]\n", f);
  const bool ok = std::fclose(f) == 0;
  if (ok) {
    std::fprintf(stderr, "[json] wrote %zu records to %s\n", records_.size(),
                 path_.c_str());
  }
  return ok;
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
                                bool time_stages, unsigned threads,
                                size_t prepared_cache_bytes) {
  RunConfig config;
  config.time_stages = time_stages;
  config.threads = threads;
  config.prepared_cache_bytes = prepared_cache_bytes;
  return RunFindRelation(method, scenario, pairs, config);
}

FindRelationRun RunFindRelation(Method method, const ScenarioData& scenario,
                                const std::vector<CandidatePair>& pairs,
                                const RunConfig& config) {
  DatasetView r_view = scenario.RView();
  DatasetView s_view = scenario.SView();
  r_view.cstore = config.r_cstore;
  s_view.cstore = config.s_cstore;
  FindRelationRun run;
  run.relation_histogram.assign(de9im::kNumRelations, 0);
  Timer timer;
  if (config.threads == 1) {
    const PipelineOptions pipeline_options{
        .time_stages = config.time_stages,
        .prepared_cache_bytes = config.prepared_cache_bytes};
    Pipeline pipeline(method, r_view, s_view, pipeline_options);
    for (const CandidatePair& pair : pairs) {
      const de9im::Relation rel = pipeline.FindRelation(pair.r_idx, pair.s_idx);
      ++run.relation_histogram[static_cast<size_t>(rel)];
    }
    run.stats = pipeline.Stats();
  } else {
    const JoinOptions join_options{
        .num_threads = config.threads,
        .time_stages = config.time_stages,
        .prepared_cache_bytes = config.prepared_cache_bytes};
    const ParallelJoinResult result =
        ParallelFindRelation(method, r_view, s_view, pairs, join_options);
    for (const de9im::Relation rel : result.relations) {
      ++run.relation_histogram[static_cast<size_t>(rel)];
    }
    run.stats = result.stats;
  }
  run.seconds = timer.ElapsedSeconds();
  run.pairs_per_second =
      run.seconds > 0 ? static_cast<double>(pairs.size()) / run.seconds : 0.0;
  return run;
}

CompressedScenarioStores BuildCompressedStores(const ScenarioData& scenario) {
  CompressedScenarioStores stores;
  stores.r_store = AprilStore::FromApproximations(scenario.r_april);
  stores.s_store = AprilStore::FromApproximations(scenario.s_april);
  stores.r_cstore = CompressedAprilStore::FromStore(stores.r_store);
  stores.s_cstore = CompressedAprilStore::FromStore(stores.s_store);
  return stores;
}

double RefinedPerSecond(const FindRelationRun& run) {
  return run.seconds > 0
             ? static_cast<double>(run.stats.refined) / run.seconds
             : 0.0;
}

void SetPreparedStats(JsonRecord* record, const PipelineStats& stats,
                      size_t prepared_cache_bytes, bool time_stages) {
  const uint64_t lookups = stats.prepared_hits + stats.prepared_misses;
  record->Set("prepared_cache_mb",
              static_cast<uint64_t>(prepared_cache_bytes >> 20))
      .Set("prepared_hits", stats.prepared_hits)
      .Set("prepared_misses", stats.prepared_misses)
      .Set("prepared_hit_rate",
           lookups == 0 ? 0.0
                        : static_cast<double>(stats.prepared_hits) /
                              static_cast<double>(lookups));
  if (time_stages) {
    record->Set("prepared_build_seconds", stats.prepared_build_seconds);
  }
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
