// Differential tests for the run-based Hilbert interval construction: the
// output-sensitive path (AppendHilbertRunIntervals + per-run stream merge)
// must be byte-identical to the per-cell oracle on every input, because both
// emit the canonical interval form of the same cell set. These tests throw
// random runs, blobs, tessellations, slivers, and degenerate single-cell
// polygons at both paths across grid orders and seeds, and pin down the
// thread-count invariance of the parallel builder.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/datasets/scenarios.h"
#include "src/datasets/tessellation.h"
#include "src/raster/april.h"
#include "src/raster/april_store.h"
#include "src/raster/grid.h"
#include "src/raster/hilbert.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace stj {
namespace {

/// Brute-force oracle for one run: enumerate, map, canonicalise.
IntervalList RunOracle(uint32_t order, uint32_t x_lo, uint32_t x_hi,
                       uint32_t y) {
  std::vector<CellId> cells;
  for (uint32_t x = x_lo; x <= x_hi; ++x) {
    cells.push_back(HilbertXYToD(order, x, y));
  }
  return IntervalList::FromCells(std::move(cells));
}

TEST(HilbertRuns, DecompositionMatchesBruteForceOnRandomRuns) {
  Rng rng(4242);
  for (int iter = 0; iter < 3000; ++iter) {
    const uint32_t order = static_cast<uint32_t>(rng.UniformInt(1, 10));
    const uint32_t n = 1u << order;
    const uint32_t y = static_cast<uint32_t>(rng.UniformInt(0, n - 1));
    uint32_t a = static_cast<uint32_t>(rng.UniformInt(0, n - 1));
    uint32_t b = static_cast<uint32_t>(rng.UniformInt(0, n - 1));
    if (a > b) std::swap(a, b);
    std::vector<CellInterval> got;
    AppendHilbertRunIntervals(order, a, b, y, &got);
    const IntervalList got_list = IntervalList::FromSorted(std::move(got));
    EXPECT_TRUE(got_list.Validate().empty());
    EXPECT_TRUE(got_list == RunOracle(order, a, b, y))
        << "order=" << order << " y=" << y << " run=[" << a << "," << b << "]";
  }
}

TEST(HilbertRuns, DecompositionHandlesFullRowsAtHighOrders) {
  // Full rows at high orders exercise the deepest recursions. The curve
  // re-enters a row repeatedly, so even a full row decomposes into ~n/3
  // intervals — the decomposition must produce exactly the canonical form
  // covering all n cells without ever materialising the n cell ids.
  for (const uint32_t order : {12u, 14u, 16u}) {
    const uint32_t n = 1u << order;
    std::vector<CellInterval> out;
    AppendHilbertRunIntervals(order, 0, n - 1, n / 2, &out);
    uint64_t cells = 0;
    for (const CellInterval& iv : out) cells += iv.Length();
    EXPECT_EQ(cells, n);
    EXPECT_LE(out.size(), static_cast<size_t>(n / 2));
    EXPECT_TRUE(IntervalList::FromSorted(std::move(out)).Validate().empty());
  }
}

void ExpectIdentical(const AprilApproximation& oracle,
                     const AprilApproximation& fast, const char* what) {
  EXPECT_TRUE(oracle.conservative == fast.conservative) << what << " C lists";
  EXPECT_TRUE(oracle.progressive == fast.progressive) << what << " P lists";
}

TEST(HilbertRuns, BuilderMatchesOracleOnBlobsAcrossOrdersAndSeeds) {
  for (const uint32_t order : {4u, 8u, 12u, 16u}) {
    const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}), order);
    const AprilBuilder fast(&grid);
    const AprilBuilder oracle(&grid, /*per_cell_oracle=*/true);
    for (const uint64_t seed : {11ull, 22ull, 33ull}) {
      Rng rng(seed);
      for (int i = 0; i < 6; ++i) {
        // Keep the object's cell footprint bounded at high orders so the
        // per-cell oracle stays cheap: shrink the radius with the order.
        const double radius =
            rng.LogUniform(0.2, 4.0) * (order >= 14 ? 0.25 : 1.0);
        const Polygon blob = test::RandomBlob(
            &rng, Point{rng.Uniform(10, 90), rng.Uniform(10, 90)}, radius,
            static_cast<size_t>(rng.UniformInt(6, 80)), 0.25);
        ExpectIdentical(oracle.Build(blob), fast.Build(blob), "blob");
      }
    }
  }
}

TEST(HilbertRuns, BuilderMatchesOracleOnTessellations) {
  Rng rng(777);
  TessellationParams params;
  params.cols = 6;
  params.rows = 6;
  const std::vector<Polygon> cells = MakeTessellation(&rng, params);
  for (const uint32_t order : {4u, 8u, 10u}) {
    const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}), order);
    const AprilBuilder fast(&grid);
    const AprilBuilder oracle(&grid, /*per_cell_oracle=*/true);
    for (const Polygon& poly : cells) {
      ExpectIdentical(oracle.Build(poly), fast.Build(poly), "tessellation");
    }
  }
}

TEST(HilbertRuns, BuilderMatchesOracleOnSliversAndSingleCells) {
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}), 10);
  const AprilBuilder fast(&grid);
  const AprilBuilder oracle(&grid, /*per_cell_oracle=*/true);

  // Sliver: thinner than a cell, so every covered cell is partial and the
  // P list is empty.
  const Polygon sliver = test::Square(10.0, 50.0, 90.0, 50.001);
  const AprilApproximation sliver_fast = fast.Build(sliver);
  ExpectIdentical(oracle.Build(sliver), sliver_fast, "sliver");
  EXPECT_TRUE(sliver_fast.progressive.Empty());
  EXPECT_FALSE(sliver_fast.conservative.Empty());

  // Diagonal sliver (touches a staircase of cells, one run per row).
  const Polygon diag = Polygon(Ring({Point{5, 5}, Point{95, 94.99},
                                     Point{95, 95.01}, Point{5, 5.02}}));
  ExpectIdentical(oracle.Build(diag), fast.Build(diag), "diagonal sliver");

  // Polygon entirely inside one cell.
  const double w = 100.0 / 1024.0;
  const Polygon tiny = test::Square(50.0 * w + 0.1 * w, 50.0 * w + 0.1 * w,
                                    50.0 * w + 0.3 * w, 50.0 * w + 0.3 * w);
  const AprilApproximation tiny_fast = fast.Build(tiny);
  ExpectIdentical(oracle.Build(tiny), tiny_fast, "single-cell");
  EXPECT_TRUE(tiny_fast.progressive.Empty());

  // Empty polygon: both lists empty on both paths.
  const Polygon empty;
  const AprilApproximation empty_fast = fast.Build(empty);
  ExpectIdentical(oracle.Build(empty), empty_fast, "empty");
  EXPECT_TRUE(empty_fast.conservative.Empty());
}

TEST(HilbertRuns, BuilderMatchesOracleAcrossTheBlockPathCutoff) {
  // The run-based path switches from per-run decomposition to quadrant
  // blocks once the coverage is large enough; a polygon with a hole sweeps
  // both sides of the cutoff as the order grows and exercises the
  // empty-interior classification of the block recursion.
  const Polygon holey = test::SquareWithHole(10, 10, 90, 90, /*hw=*/15);
  for (const uint32_t order : {4u, 6u, 8u, 10u, 12u}) {
    const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}), order);
    const AprilBuilder fast(&grid);
    const AprilBuilder oracle(&grid, /*per_cell_oracle=*/true);
    ExpectIdentical(oracle.Build(holey), fast.Build(holey), "holey square");
  }
}

TEST(HilbertRuns, ParallelBuilderIsThreadCountInvariant) {
  const Dataset dataset = BuildDataset("TW", 0.05, 99);
  ASSERT_GT(dataset.objects.size(), 4u);
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}), 10);
  const std::vector<AprilApproximation> serial =
      BuildAprilApproximations(dataset, grid, /*num_threads=*/1);
  const AprilStore serial_store = AprilStore::FromApproximations(serial);
  for (const unsigned threads : {2u, 3u, 5u, 8u}) {
    const std::vector<AprilApproximation> parallel =
        BuildAprilApproximations(dataset, grid, threads);
    ASSERT_EQ(parallel.size(), serial.size()) << threads << " threads";
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(serial[i].conservative == parallel[i].conservative)
          << "object " << i << " with " << threads << " threads";
      EXPECT_TRUE(serial[i].progressive == parallel[i].progressive)
          << "object " << i << " with " << threads << " threads";
    }
    // Arena form: identical stores, byte for byte.
    EXPECT_TRUE(AprilStore::FromApproximations(parallel) == serial_store)
        << threads << " threads";
  }
}

TEST(HilbertRuns, ParallelOracleBuildMatchesRunBasedBuild) {
  // The fanned-out run-based build must match the serial per-cell oracle
  // object for object.
  const Dataset dataset = BuildDataset("TC", 0.03, 5);
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}), 9);
  const std::vector<AprilApproximation> fast =
      BuildAprilApproximations(dataset, grid, 3);
  const AprilBuilder oracle(&grid, /*per_cell_oracle=*/true);
  ASSERT_EQ(fast.size(), dataset.objects.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    ExpectIdentical(oracle.Build(dataset.objects[i].geometry), fast[i],
                    "parallel dataset object");
  }
}

}  // namespace
}  // namespace stj
