// Micro-benchmarks for the interval-list merge-joins — the primitive the
// P+C intermediate filters are built from — plus the PR7 JSON harness.
//
// Two modes:
//  - default: google-benchmark micro suite. The classic per-relation
//    benchmarks run at the active SIMD level; a registered sweep additionally
//    runs all four relations over dense / sparse / adversarial list shapes at
//    every available kernel level (scalar vs AVX2/NEON), so a regression in
//    either table is visible in isolation.
//  - --json=PATH: the BENCH_PR7.json harness. Builds the dense TC-TZ
//    tessellation scenario and times the full intermediate-filter stage
//    (FindRelationFilter over all MBR-join candidates) with scalar and with
//    SIMD kernels at 1 and 4 threads, verifying that both produce identical
//    decisions and reporting the scalar-vs-SIMD speedup and the block
//    codec's compression ratio.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/interval/interval_algebra.h"
#include "src/interval/simd.h"
#include "src/raster/april_compressed.h"
#include "src/raster/april_store.h"
#include "src/topology/find_relation.h"
#include "src/util/cpuid.h"
#include "src/util/parallel_for.h"
#include "src/util/rng.h"

namespace stj {
namespace {

IntervalList MakeList(Rng* rng, size_t intervals, CellId gap, CellId span) {
  IntervalList list;
  CellId cursor = rng->NextBounded(gap);
  for (size_t i = 0; i < intervals; ++i) {
    const CellId length = 1 + rng->NextBounded(span);
    list.Append(cursor, cursor + length);
    cursor += length + 1 + rng->NextBounded(gap);
  }
  return list;
}

void BM_ListsOverlap(benchmark::State& state) {
  Rng rng(1);
  const size_t n = static_cast<size_t>(state.range(0));
  const IntervalList x = MakeList(&rng, n, 8, 16);
  const IntervalList y = MakeList(&rng, n, 8, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ListsOverlap(x, y));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_ListsOverlap)->Range(8, 64 << 10)->Complexity(benchmark::oN);

void BM_ListsOverlapDisjointLists(benchmark::State& state) {
  // Worst case for overlap: interleaved lists that never intersect force a
  // full merge.
  const size_t n = static_cast<size_t>(state.range(0));
  IntervalList x;
  IntervalList y;
  for (size_t i = 0; i < n; ++i) {
    x.Append(4 * i, 4 * i + 1);
    y.Append(4 * i + 2, 4 * i + 3);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ListsOverlap(x, y));
  }
}
BENCHMARK(BM_ListsOverlapDisjointLists)->Range(8, 64 << 10);

void BM_ListsOverlapDisjointRanges(benchmark::State& state) {
  // Best case for overlap: the lists' Hilbert cell ranges do not intersect,
  // so the range quick-reject answers in O(1) regardless of list length.
  Rng rng(11);
  const size_t n = static_cast<size_t>(state.range(0));
  const IntervalList x = MakeList(&rng, n, 8, 16);
  IntervalList y;
  CellId cursor = x.BackEnd() + 64;
  for (size_t i = 0; i < n; ++i) {
    y.Append(cursor, cursor + 4);
    cursor += 8;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ListsOverlap(x, y));
  }
}
BENCHMARK(BM_ListsOverlapDisjointRanges)->Range(8, 64 << 10);

void BM_ListInside(benchmark::State& state) {
  Rng rng(2);
  const size_t n = static_cast<size_t>(state.range(0));
  const IntervalList y = MakeList(&rng, n, 4, 64);
  // x: sub-intervals of y, guaranteeing the positive (full-scan) path.
  IntervalList x;
  for (size_t i = 0; i < y.Size(); i += 2) {
    if (y[i].Length() >= 2) x.Append(y[i].begin, y[i].begin + 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ListInside(x, y));
  }
}
BENCHMARK(BM_ListInside)->Range(8, 64 << 10);

void BM_ListInsideOutsideRange(benchmark::State& state) {
  // x's last cell lies beyond y's range: the endpoint pre-check refutes
  // containment without scanning either list.
  Rng rng(12);
  const size_t n = static_cast<size_t>(state.range(0));
  const IntervalList y = MakeList(&rng, n, 4, 64);
  IntervalList x;
  for (size_t i = 0; i < y.Size(); i += 2) {
    if (y[i].Length() >= 2) x.Append(y[i].begin, y[i].begin + 1);
  }
  x.Append(y.BackEnd() + 8, y.BackEnd() + 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ListInside(x, y));
  }
}
BENCHMARK(BM_ListInsideOutsideRange)->Range(8, 64 << 10);

void BM_ListsMatch(benchmark::State& state) {
  Rng rng(3);
  const size_t n = static_cast<size_t>(state.range(0));
  const IntervalList x = MakeList(&rng, n, 8, 16);
  const IntervalList y = x;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ListsMatch(x, y));
  }
}
BENCHMARK(BM_ListsMatch)->Range(8, 64 << 10);

void BM_ListsMatchEndpointMismatch(benchmark::State& state) {
  // Identical lists except for the very last cell: the size and endpoint
  // pre-checks answer in O(1) instead of scanning to the final interval.
  Rng rng(13);
  const size_t n = static_cast<size_t>(state.range(0));
  const IntervalList x = MakeList(&rng, n, 8, 16);
  IntervalList y;
  for (size_t i = 0; i < x.Size(); ++i) {
    const CellId extend = (i + 1 == x.Size()) ? 1 : 0;
    y.Append(x[i].begin, x[i].end + extend);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ListsMatch(x, y));
  }
}
BENCHMARK(BM_ListsMatchEndpointMismatch)->Range(8, 64 << 10);

void BM_ListsCommonCells(benchmark::State& state) {
  Rng rng(4);
  const size_t n = static_cast<size_t>(state.range(0));
  const IntervalList x = MakeList(&rng, n, 4, 32);
  const IntervalList y = MakeList(&rng, n, 4, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ListsCommonCells(x, y));
  }
}
BENCHMARK(BM_ListsCommonCells)->Range(8, 16 << 10);

void BM_ListsCommonCellsDisjointRanges(benchmark::State& state) {
  // Disjoint Hilbert ranges: the quick-reject returns 0 common cells in
  // O(1) regardless of list length.
  Rng rng(14);
  const size_t n = static_cast<size_t>(state.range(0));
  const IntervalList x = MakeList(&rng, n, 4, 32);
  IntervalList y;
  CellId cursor = x.BackEnd() + 64;
  for (size_t i = 0; i < n; ++i) {
    y.Append(cursor, cursor + 4);
    cursor += 8;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ListsCommonCells(x, y));
  }
}
BENCHMARK(BM_ListsCommonCellsDisjointRanges)->Range(8, 16 << 10);

// ---- relation x shape x kernel-level sweep ------------------------------

enum class RelationOp { kOverlap, kInside, kMatch, kCommonCells };
enum class ListShape { kDense, kSparse, kManyTinyVsHuge, kHeavyOverlap };

struct ListPair {
  IntervalList x;
  IntervalList y;
};

/// Builds an (x, y) pair of the given shape whose evaluation reaches the
/// kernel merge loop of \p op (pre-checks must not answer in O(1)).
ListPair MakeShapePair(RelationOp op, ListShape shape, size_t n) {
  Rng rng(static_cast<uint64_t>(op) * 101 + static_cast<uint64_t>(shape) + 1);
  ListPair pair;
  switch (shape) {
    case ListShape::kDense:
      pair.x = MakeList(&rng, n, 4, 24);
      pair.y = MakeList(&rng, n, 4, 24);
      break;
    case ListShape::kSparse:
      pair.x = MakeList(&rng, n, 512, 4);
      pair.y = MakeList(&rng, n, 512, 4);
      break;
    case ListShape::kManyTinyVsHuge:
      // x: n single-cell intervals; y: a few huge intervals spanning them.
      for (size_t i = 0; i < n; ++i) pair.x.Append(8 * i, 8 * i + 1);
      for (size_t i = 0; i < n; i += 256) {
        pair.y.Append(8 * i + 1, 8 * (i + 255) + 7);
      }
      break;
    case ListShape::kHeavyOverlap:
      // Same grid, half-offset: every interval partially overlaps one of
      // the other list's.
      for (size_t i = 0; i < n; ++i) {
        pair.x.Append(8 * i, 8 * i + 5);
        pair.y.Append(8 * i + 3, 8 * i + 7);
      }
      break;
  }
  if (op == RelationOp::kInside) {
    // Positive containment: x becomes sub-intervals of y.
    IntervalList sub;
    for (size_t i = 0; i < pair.y.Size(); i += 2) {
      if (pair.y[i].Length() >= 2) sub.Append(pair.y[i].begin,
                                              pair.y[i].begin + 1);
    }
    pair.x = std::move(sub);
  } else if (op == RelationOp::kMatch) {
    pair.y = pair.x;
  }
  return pair;
}

const char* ToString(RelationOp op) {
  switch (op) {
    case RelationOp::kOverlap: return "overlap";
    case RelationOp::kInside: return "inside";
    case RelationOp::kMatch: return "match";
    case RelationOp::kCommonCells: return "common_cells";
  }
  return "?";
}

const char* ToString(ListShape shape) {
  switch (shape) {
    case ListShape::kDense: return "dense";
    case ListShape::kSparse: return "sparse";
    case ListShape::kManyTinyVsHuge: return "many_tiny_vs_huge";
    case ListShape::kHeavyOverlap: return "heavy_overlap";
  }
  return "?";
}

void BM_RelationShapeLevel(benchmark::State& state, RelationOp op,
                           ListShape shape, SimdLevel level) {
  if (!simd::ForceLevel(level)) {
    state.SkipWithError("kernel level unavailable");
    return;
  }
  const size_t n = static_cast<size_t>(state.range(0));
  const ListPair pair = MakeShapePair(op, shape, n);
  for (auto _ : state) {
    switch (op) {
      case RelationOp::kOverlap:
        benchmark::DoNotOptimize(ListsOverlap(pair.x, pair.y));
        break;
      case RelationOp::kInside:
        benchmark::DoNotOptimize(ListInside(pair.x, pair.y));
        break;
      case RelationOp::kMatch:
        benchmark::DoNotOptimize(ListsMatch(pair.x, pair.y));
        break;
      case RelationOp::kCommonCells:
        benchmark::DoNotOptimize(ListsCommonCells(pair.x, pair.y));
        break;
    }
  }
  simd::ForceLevel(DetectSimdLevel());
}

void RegisterSweepBenchmarks() {
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2,
                                SimdLevel::kNeon}) {
    if (simd::KernelsFor(level) == nullptr) continue;
    for (const RelationOp op :
         {RelationOp::kOverlap, RelationOp::kInside, RelationOp::kMatch,
          RelationOp::kCommonCells}) {
      for (const ListShape shape :
           {ListShape::kDense, ListShape::kSparse,
            ListShape::kManyTinyVsHuge, ListShape::kHeavyOverlap}) {
        const std::string name = std::string("BM_Interval/") + ToString(op) +
                                 "/" + ToString(shape) + "/" +
                                 ToString(level);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [op, shape, level](benchmark::State& state) {
              BM_RelationShapeLevel(state, op, shape, level);
            })
            ->Range(1 << 8, 64 << 10);
      }
    }
  }
}

// ---- BENCH_PR7.json harness ---------------------------------------------

/// A FilterDecision packed into one word for cross-configuration equality.
uint32_t EncodeDecision(const FilterDecision& d) {
  return (d.definite ? 1u : 0u) | (static_cast<uint32_t>(d.stage) << 1) |
         (static_cast<uint32_t>(d.relation) << 3) |
         (static_cast<uint32_t>(d.candidates.Bits()) << 8);
}

struct HarnessData {
  ScenarioData scenario;
  std::vector<Box> r_mbrs;
  std::vector<Box> s_mbrs;
  AprilStore r_store;
  AprilStore s_store;
};

/// One timed pass of the intermediate-filter stage over every candidate.
/// Decisions land index-aligned in \p decisions regardless of threading.
double TimedPass(const HarnessData& data, unsigned threads,
                 std::vector<uint32_t>* decisions) {
  const std::vector<CandidatePair>& pairs = data.scenario.candidates;
  const auto start = std::chrono::steady_clock::now();
  internal::RunChunks(threads, pairs.size(),
            [&](unsigned, size_t begin, size_t end) {
              for (size_t i = begin; i < end; ++i) {
                const CandidatePair& p = pairs[i];
                (*decisions)[i] = EncodeDecision(FindRelationFilter(
                    data.r_mbrs[p.r_idx], data.r_store.View(p.r_idx),
                    data.s_mbrs[p.s_idx], data.s_store.View(p.s_idx)));
              }
            });
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Best-of-N pass time; N grows until ~0.6 s of total measurement.
double BestPassSeconds(const HarnessData& data, unsigned threads,
                       std::vector<uint32_t>* decisions) {
  double best = 1e30;
  double total = 0.0;
  int passes = 0;
  while (passes < 3 || total < 0.6) {
    const double s = TimedPass(data, threads, decisions);
    if (s < best) best = s;
    total += s;
    ++passes;
  }
  return best;
}

int RunJsonHarness(const bench::BenchOptions& options) {
  using bench::JsonRecord;
  const SimdLevel best_level = DetectSimdLevel();
  if (best_level == SimdLevel::kScalar) {
    std::fprintf(stderr,
                 "bench_micro_interval: no SIMD kernel available on this "
                 "CPU/build; speedup records would be vacuous\n");
  }

  HarnessData data;
  data.scenario = bench::BuildScenarioVerbose("TC-TZ", options);
  data.r_mbrs = data.scenario.r.Mbrs();
  data.s_mbrs = data.scenario.s.Mbrs();
  data.r_store = AprilStore::FromApproximations(data.scenario.r_april);
  data.s_store = AprilStore::FromApproximations(data.scenario.s_april);

  const size_t flat_bytes =
      data.r_store.IntervalByteSize() + data.s_store.IntervalByteSize();
  const size_t blocked_bytes =
      CompressedAprilStore::FromStore(data.r_store).PayloadByteSize() +
      CompressedAprilStore::FromStore(data.s_store).PayloadByteSize();

  bench::JsonReporter reporter(options.json_path);
  reporter.Add(JsonRecord()
                   .Set("bench", "interval_simd")
                   .Set("stage", "codec")
                   .Set("scenario", data.scenario.name)
                   .Set("grid_order", options.grid_order)
                   .Set("flat_bytes", static_cast<uint64_t>(flat_bytes))
                   .Set("blocked_bytes", static_cast<uint64_t>(blocked_bytes))
                   .Set("compression_ratio",
                        static_cast<double>(flat_bytes) /
                            static_cast<double>(blocked_bytes)));

  struct Mode {
    const char* name;
    SimdLevel level;
  };
  const Mode modes[] = {
      {"scalar", SimdLevel::kScalar},
      {"simd", best_level},
  };
  const std::vector<unsigned> threads_sweep =
      options.threads.size() > 1 ? options.threads
                                 : std::vector<unsigned>{1, 4};

  const size_t num_pairs = data.scenario.candidates.size();
  std::vector<uint32_t> scalar_decisions(num_pairs);
  std::vector<uint32_t> decisions(num_pairs);
  for (const unsigned threads : threads_sweep) {
    double scalar_pps = 0.0;
    for (const Mode& mode : modes) {
      if (!simd::ForceLevel(mode.level)) continue;
      std::vector<uint32_t>* out =
          std::strcmp(mode.name, "scalar") == 0 ? &scalar_decisions
                                                : &decisions;
      const double best = BestPassSeconds(data, threads, out);
      const double pps = static_cast<double>(num_pairs) / best;
      const bool identical = *out == scalar_decisions;
      if (std::strcmp(mode.name, "scalar") == 0) scalar_pps = pps;
      std::printf("  %-16s %u thread(s): %10.0f pairs/s  (%.2fx scalar%s)\n",
                  mode.name, threads, pps,
                  scalar_pps > 0 ? pps / scalar_pps : 0.0,
                  identical ? "" : ", DECISIONS DIFFER");
      reporter.Add(
          JsonRecord()
              .Set("bench", "interval_simd")
              .Set("stage", "find_relation_filter")
              .Set("scenario", data.scenario.name)
              .Set("mode", mode.name)
              .Set("simd_level", ToString(simd::ActiveLevel()))
              .Set("threads", threads)
              .Set("pairs", static_cast<uint64_t>(num_pairs))
              .Set("seconds", best)
              .Set("pairs_per_sec", pps)
              .Set("speedup_vs_scalar",
                   scalar_pps > 0 ? pps / scalar_pps : 0.0)
              .Set("identical", static_cast<uint64_t>(identical ? 1 : 0)));
    }
  }
  simd::ForceLevel(best_level);
  return reporter.Write() ? 0 : 1;
}

}  // namespace
}  // namespace stj

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      return stj::RunJsonHarness(stj::bench::BenchOptions::Parse(argc, argv));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  stj::RegisterSweepBenchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
