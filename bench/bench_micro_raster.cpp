// Micro-benchmarks for the raster substrate: Hilbert curve evaluation and
// APRIL construction cost (the once-per-object preprocessing) whole and
// split into its two halves, rasterisation and the quadrant decomposition,
// the WKT parse that precedes them, plus the Hilbert-vs-row-major interval
// count ablation from DESIGN.md.

#include <benchmark/benchmark.h>

#include "src/datasets/blob.h"
#include "src/datasets/tessellation.h"
#include "src/geometry/wkt.h"
#include "src/raster/april.h"
#include "src/util/rng.h"

namespace stj {
namespace {

void BM_HilbertXYToD(benchmark::State& state) {
  uint32_t x = 12345;
  uint32_t y = 54321;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HilbertXYToD(16, x, y));
    x = (x * 2654435761u) >> 16;
    y = (y * 2246822519u) >> 16;
  }
}
BENCHMARK(BM_HilbertXYToD);

void BM_AprilBuild(benchmark::State& state) {
  Rng rng(21);
  const size_t vertices = static_cast<size_t>(state.range(0));
  BlobParams params;
  params.center = Point{50, 50};
  params.mean_radius = 10.0;
  params.vertices = vertices;
  const Polygon blob = MakeBlob(&rng, params);
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}), 12);
  const AprilBuilder builder(&grid);
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.Build(blob));
  }
}
BENCHMARK(BM_AprilBuild)->RangeMultiplier(4)->Range(16, 16384);

// The split build benchmarks run on a grid of order 12 over [0, 100]²,
// like BM_AprilBuild, with two inputs: 0 is a tessellation cell of a TZ zip
// code's size and vertex count at perfbench's tc-tz scale (144 × 144 cells
// over the region, 12 points per shared edge; about 28 × 28 grid cells),
// and 1 is a fine blob (4,096 vertices, radius 10).
Polygon SplitInput(int64_t which, benchmark::State* state) {
  if (which == 0) {
    state->SetLabel("tessellation cell");
    Rng rng(27);
    TessellationParams params;
    const double side = 100.0 / 144.0;
    params.region = Box::Of(Point{50, 50}, Point{50 + 3 * side, 50 + 3 * side});
    params.cols = 3;
    params.rows = 3;
    params.edge_points = 12;
    return MakeTessellation(&rng, params)[4];  // The middle cell.
  }
  state->SetLabel("fine blob");
  Rng rng(29);
  BlobParams params;
  params.center = Point{50, 50};
  params.mean_radius = 10.0;
  params.vertices = 4096;
  return MakeBlob(&rng, params);
}

void BM_Rasterize(benchmark::State& state) {
  const Polygon poly = SplitInput(state.range(0), &state);
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}), 12);
  Rasterizer rasterizer(&grid);
  RasterCoverage coverage;
  for (auto _ : state) {
    rasterizer.Rasterize(poly, &coverage);
    benchmark::DoNotOptimize(coverage.partial_by_row.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Rasterize)->Arg(0)->Arg(1);

// Parses one polygon's WKT as the loader does, on a blob of range(0)
// vertices written by ToWkt (%.17g coordinates, as `stj_cli generate`
// writes them).
void BM_ParseWktPolygon(benchmark::State& state) {
  Rng rng(31);
  BlobParams params;
  params.center = Point{50, 50};
  params.mean_radius = 10.0;
  params.vertices = static_cast<size_t>(state.range(0));
  const std::string wkt = ToWkt(MakeBlob(&rng, params));
  for (auto _ : state) {
    Result<Polygon> polygon = ParseWktPolygon(wkt);
    benchmark::DoNotOptimize(polygon);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(wkt.size()));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParseWktPolygon)->Arg(1000)->Arg(16384);

// Writes the same blobs as BM_ParseWktPolygon with ToWkt, as
// `stj_cli generate` and SaveWktDataset format each line.
void BM_ToWktPolygon(benchmark::State& state) {
  Rng rng(31);
  BlobParams params;
  params.center = Point{50, 50};
  params.mean_radius = 10.0;
  params.vertices = static_cast<size_t>(state.range(0));
  const Polygon blob = MakeBlob(&rng, params);
  const size_t bytes = ToWkt(blob).size();
  for (auto _ : state) {
    std::string wkt = ToWkt(blob);
    benchmark::DoNotOptimize(wkt);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ToWktPolygon)->Arg(1000)->Arg(16384);

// The coverage is rasterised once, outside the timed loop.
void BM_DecomposeQuadrants(benchmark::State& state) {
  const Polygon poly = SplitInput(state.range(0), &state);
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}), 12);
  const RasterCoverage coverage = Rasterizer(&grid).Rasterize(poly);
  const AprilBuilder builder(&grid);
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.FromCoverageQuadrants(coverage));
  }
}
BENCHMARK(BM_DecomposeQuadrants)->Arg(0)->Arg(1);

void BM_AprilBuildByGridOrder(benchmark::State& state) {
  Rng rng(23);
  BlobParams params;
  params.center = Point{50, 50};
  params.mean_radius = 10.0;
  params.vertices = 512;
  const Polygon blob = MakeBlob(&rng, params);
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}),
                        static_cast<uint32_t>(state.range(0)));
  const AprilBuilder builder(&grid);
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.Build(blob));
  }
}
BENCHMARK(BM_AprilBuildByGridOrder)->DenseRange(8, 14, 2);

// Ablation: Hilbert vs row-major cell enumeration. Reports the interval
// count ratio as a counter (lower interval counts = cheaper merge-joins).
void BM_HilbertVsRowMajorIntervals(benchmark::State& state) {
  Rng rng(25);
  BlobParams params;
  params.center = Point{50, 50};
  params.mean_radius = 20.0;
  params.vertices = 256;
  const Polygon blob = MakeBlob(&rng, params);
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}), 10);
  const Rasterizer rasterizer(&grid);
  const RasterCoverage coverage = rasterizer.Rasterize(blob);

  size_t hilbert_intervals = 0;
  size_t rowmajor_intervals = 0;
  for (auto _ : state) {
    std::vector<CellId> hilbert_cells;
    std::vector<CellId> rowmajor_cells;
    for (size_t row = 0; row < coverage.partial_by_row.size(); ++row) {
      const uint32_t cy = coverage.y0 + static_cast<uint32_t>(row);
      auto add = [&](uint32_t cx) {
        hilbert_cells.push_back(grid.CellIdOf(cx, cy));
        rowmajor_cells.push_back(
            static_cast<CellId>(cy) * grid.CellsPerSide() + cx);
      };
      for (const uint32_t cx : coverage.partial_by_row[row]) add(cx);
      for (const auto& [first, last] : coverage.full_runs_by_row[row]) {
        for (uint32_t cx = first; cx <= last; ++cx) add(cx);
      }
    }
    const IntervalList hilbert = IntervalList::FromCells(hilbert_cells);
    const IntervalList rowmajor = IntervalList::FromCells(rowmajor_cells);
    hilbert_intervals = hilbert.Size();
    rowmajor_intervals = rowmajor.Size();
    benchmark::DoNotOptimize(hilbert);
    benchmark::DoNotOptimize(rowmajor);
  }
  state.counters["hilbert_intervals"] =
      static_cast<double>(hilbert_intervals);
  state.counters["rowmajor_intervals"] =
      static_cast<double>(rowmajor_intervals);
}
BENCHMARK(BM_HilbertVsRowMajorIntervals);

}  // namespace
}  // namespace stj
