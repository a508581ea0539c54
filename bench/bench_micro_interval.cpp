// Micro-benchmarks for the interval-list merge-joins — the primitive the
// P+C intermediate filters are built from (google-benchmark). Besides the
// classic per-relation benchmarks, a registered sweep runs all four
// relations over dense / sparse / adversarial list shapes, so a regression
// in one merge loop is visible in isolation.

#include <benchmark/benchmark.h>

#include <string>

#include "src/interval/interval_algebra.h"
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

// ---- relation x shape sweep ----------------------------------------------

enum class RelationOp { kOverlap, kInside, kMatch, kCommonCells };
enum class ListShape { kDense, kSparse, kManyTinyVsHuge, kHeavyOverlap };

struct ListPair {
  IntervalList x;
  IntervalList y;
};

/// Builds an (x, y) pair of the given shape whose evaluation reaches the
/// merge loop of \p op (pre-checks must not answer in O(1)).
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

void BM_RelationShape(benchmark::State& state, RelationOp op,
                      ListShape shape) {
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
}

void RegisterSweepBenchmarks() {
  for (const RelationOp op :
       {RelationOp::kOverlap, RelationOp::kInside, RelationOp::kMatch,
        RelationOp::kCommonCells}) {
    for (const ListShape shape :
         {ListShape::kDense, ListShape::kSparse, ListShape::kManyTinyVsHuge,
          ListShape::kHeavyOverlap}) {
      const std::string name = std::string("BM_Interval/") + ToString(op) +
                               "/" + ToString(shape);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [op, shape](benchmark::State& state) {
            BM_RelationShape(state, op, shape);
          })
          ->Range(1 << 8, 64 << 10);
    }
  }
}

}  // namespace
}  // namespace stj

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  stj::RegisterSweepBenchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
