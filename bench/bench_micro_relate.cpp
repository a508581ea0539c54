// Micro-benchmarks for the DE-9IM relate engine: per-pair refinement cost as
// a function of polygon complexity. This is the superlinear cost curve that
// motivates the paper's intermediate filter (Fig. 8(b)), plus the contrast
// with the P+C filter cost on the same pairs.

#include <benchmark/benchmark.h>

#include <vector>

#include "src/datasets/blob.h"
#include "src/de9im/relate_engine.h"
#include "src/geometry/edge_slab_index.h"
#include "src/geometry/prepared_polygon.h"
#include "src/raster/april.h"
#include "src/topology/find_relation.h"
#include "src/util/rng.h"

namespace stj {
namespace {

Polygon Blob(Rng* rng, Point center, double radius, size_t vertices) {
  BlobParams params;
  params.center = center;
  params.mean_radius = radius;
  params.vertices = vertices;
  params.irregularity = 0.4;
  return MakeBlob(rng, params);
}

void BM_RelateOverlappingBlobs(benchmark::State& state) {
  Rng rng(11);
  const size_t vertices = static_cast<size_t>(state.range(0));
  const Polygon a = Blob(&rng, Point{50, 50}, 20.0, vertices);
  const Polygon b = Blob(&rng, Point{62, 50}, 20.0, vertices);
  for (auto _ : state) {
    benchmark::DoNotOptimize(de9im::RelateMatrix(a, b));
  }
  state.SetComplexityN(static_cast<int64_t>(vertices));
}
BENCHMARK(BM_RelateOverlappingBlobs)->RangeMultiplier(4)->Range(16, 16384)
    ->Complexity(benchmark::oNLogN);

void BM_RelateNestedBlobs(benchmark::State& state) {
  Rng rng(13);
  const size_t vertices = static_cast<size_t>(state.range(0));
  const Polygon outer = Blob(&rng, Point{50, 50}, 30.0, vertices);
  const Polygon inner = Blob(&rng, Point{50, 50}, 8.0, vertices);
  for (auto _ : state) {
    benchmark::DoNotOptimize(de9im::RelateMatrix(inner, outer));
  }
}
BENCHMARK(BM_RelateNestedBlobs)->RangeMultiplier(4)->Range(16, 16384);

void BM_PCFilterSamePairs(benchmark::State& state) {
  // The filter-side cost on the nested configuration above: linear in the
  // interval list lengths, orders of magnitude below refinement.
  Rng rng(13);
  const size_t vertices = static_cast<size_t>(state.range(0));
  const Polygon outer = Blob(&rng, Point{50, 50}, 30.0, vertices);
  const Polygon inner = Blob(&rng, Point{50, 50}, 8.0, vertices);
  Box space;
  space.Expand(outer.Bounds());
  space.Expand(inner.Bounds());
  const RasterGrid grid(space, 12);
  const AprilBuilder builder(&grid);
  const AprilApproximation inner_april = builder.Build(inner);
  const AprilApproximation outer_april = builder.Build(outer);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindRelationFilter(
        inner.Bounds(), inner_april, outer.Bounds(), outer_april));
  }
}
BENCHMARK(BM_PCFilterSamePairs)->RangeMultiplier(4)->Range(16, 16384);

void BM_RelatePreparedSinglePair(benchmark::State& state) {
  // The overlapping-blobs pair of BM_RelateOverlappingBlobs, but with both
  // sides prepared and warmed outside the loop: the per-pair cost once all
  // index construction is amortised away. The gap to the cold benchmark is
  // the bound on what the pipeline's prepared cache can save per pair.
  Rng rng(11);
  const size_t vertices = static_cast<size_t>(state.range(0));
  const Polygon a = Blob(&rng, Point{50, 50}, 20.0, vertices);
  const Polygon b = Blob(&rng, Point{62, 50}, 20.0, vertices);
  const PreparedPolygon pa(a);
  const PreparedPolygon pb(b);
  pa.Warm();
  pb.Warm();
  for (auto _ : state) {
    benchmark::DoNotOptimize(de9im::RelateEngine::Relate(pa, pb));
  }
  state.SetComplexityN(static_cast<int64_t>(vertices));
}
BENCHMARK(BM_RelatePreparedSinglePair)->RangeMultiplier(4)->Range(16, 16384)
    ->Complexity(benchmark::oNLogN);

void BM_PreparedBuildOnly(benchmark::State& state) {
  // The cost the cache saves: constructing and warming one side's prepared
  // index (its edge slab index) from scratch.
  Rng rng(11);
  const size_t vertices = static_cast<size_t>(state.range(0));
  const Polygon a = Blob(&rng, Point{50, 50}, 20.0, vertices);
  for (auto _ : state) {
    PreparedPolygon prepared(a);
    prepared.Warm();
    benchmark::DoNotOptimize(&prepared.EdgeIndex());
  }
  state.SetComplexityN(static_cast<int64_t>(vertices));
}
BENCHMARK(BM_PreparedBuildOnly)->RangeMultiplier(4)->Range(16, 16384)
    ->Complexity(benchmark::oNLogN);

void BM_LocateUnindexed(benchmark::State& state) {
  // What an unbuilt index costs instead: one crossing-count pass over the
  // same blob's edges, locating a point against it bare. The ratio of
  // BM_PreparedBuildOnly to this is how many such passes a build is worth:
  // 6 to 9 at 16 to 16,384 vertices. PreparedPolygon::kIndexAfterScans, the
  // scans after which a bare polygon builds its index, stays at 64 all the
  // same: an index also takes cache budget, and indexing sooner built
  // indexes obe-ope never reused (see prepared_polygon.h).
  Rng rng(11);
  const size_t vertices = static_cast<size_t>(state.range(0));
  const Polygon a = Blob(&rng, Point{50, 50}, 20.0, vertices);
  std::vector<Point> points;
  for (int i = 0; i < 256; ++i) {
    points.push_back(Point{rng.Uniform(35, 65), rng.Uniform(35, 65)});
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LocateUnindexed(a, points[next]));
    next = (next + 1) % points.size();
  }
  state.SetComplexityN(static_cast<int64_t>(vertices));
}
BENCHMARK(BM_LocateUnindexed)->RangeMultiplier(4)->Range(16, 16384)
    ->Complexity(benchmark::oN);

void BM_RepeatedObjectColdRelate(benchmark::State& state) {
  // One pivot object refined against 8 partners, rebuilding the pivot's
  // indexes for every pair — the pipeline's access pattern without the
  // prepared cache (tessellations put every cell in many candidate pairs).
  Rng rng(19);
  const size_t vertices = static_cast<size_t>(state.range(0));
  const Polygon pivot = Blob(&rng, Point{50, 50}, 20.0, vertices);
  std::vector<Polygon> partners;
  for (int i = 0; i < 8; ++i) {
    partners.push_back(
        Blob(&rng, Point{50 + 3.0 * (i - 4), 50}, 18.0, vertices));
  }
  for (auto _ : state) {
    for (const Polygon& partner : partners) {
      benchmark::DoNotOptimize(de9im::RelateMatrix(pivot, partner));
    }
  }
  state.SetComplexityN(static_cast<int64_t>(vertices));
}
BENCHMARK(BM_RepeatedObjectColdRelate)->RangeMultiplier(4)->Range(64, 4096);

void BM_RepeatedObjectPreparedRelate(benchmark::State& state) {
  // The same pairs with every object prepared once up front — what the
  // pipeline's cache achieves at a 100% hit rate.
  Rng rng(19);
  const size_t vertices = static_cast<size_t>(state.range(0));
  const Polygon pivot = Blob(&rng, Point{50, 50}, 20.0, vertices);
  std::vector<Polygon> partners;
  for (int i = 0; i < 8; ++i) {
    partners.push_back(
        Blob(&rng, Point{50 + 3.0 * (i - 4), 50}, 18.0, vertices));
  }
  const PreparedPolygon prepared_pivot(pivot);
  prepared_pivot.Warm();
  std::vector<PreparedPolygon> prepared_partners;
  for (const Polygon& partner : partners) {
    prepared_partners.emplace_back(partner);
    prepared_partners.back().Warm();
  }
  for (auto _ : state) {
    for (const PreparedPolygon& partner : prepared_partners) {
      benchmark::DoNotOptimize(
          de9im::RelateEngine::Relate(prepared_pivot, partner));
    }
  }
  state.SetComplexityN(static_cast<int64_t>(vertices));
}
BENCHMARK(BM_RepeatedObjectPreparedRelate)->RangeMultiplier(4)->Range(64, 4096);

void BM_RelateSharedBoundary(benchmark::State& state) {
  // Tessellation-style shared boundaries stress the collinear-overlap path
  // of the boundary arrangement.
  Rng rng(17);
  const size_t vertices = static_cast<size_t>(state.range(0));
  const Polygon a = Blob(&rng, Point{50, 50}, 20.0, vertices);
  const Polygon b = FillHoles(a);  // equal outer boundary
  for (auto _ : state) {
    benchmark::DoNotOptimize(de9im::RelateMatrix(a, b));
  }
}
BENCHMARK(BM_RelateSharedBoundary)->RangeMultiplier(4)->Range(16, 4096);

}  // namespace
}  // namespace stj
