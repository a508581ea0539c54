// Differential tests for APRIL construction: the quadrant recursion that
// Build() uses must be byte-identical to the per-cell oracle on every input,
// because both emit the canonical interval form of the same cell set. These
// tests throw synthetic coverages, blobs, tessellations, slivers, and
// degenerate single-cell polygons at both constructions across grid orders
// and seeds, test the recursion's 8×8 leaf kernel exhaustively on 4×4
// blocks, and pin down the thread-count invariance of the parallel builder.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/datasets/scenarios.h"
#include "src/datasets/tessellation.h"
#include "src/raster/april.h"
#include "src/raster/april_store.h"
#include "src/raster/grid.h"
#include "src/raster/rasterizer.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace stj {
namespace {

void ExpectIdentical(const AprilApproximation& oracle,
                     const AprilApproximation& fast, const char* what) {
  EXPECT_TRUE(oracle.conservative == fast.conservative) << what << " C lists";
  EXPECT_TRUE(oracle.progressive == fast.progressive) << what << " P lists";
}

/// The per-cell oracle's lists for \p poly on \p grid.
AprilApproximation Oracle(const RasterGrid& grid, const Polygon& poly) {
  return AprilBuilder(&grid).FromCoverage(Rasterizer(&grid).Rasterize(poly));
}

/// Appends one synthetic coverage row: each column of [lo, hi] is picked
/// with probability \p density and marked full with probability \p full;
/// the maximal runs of full columns become the row's full runs.
void AddRow(Rng* rng, uint32_t lo, uint32_t hi, double density, double full,
            RasterCoverage* coverage) {
  std::vector<uint32_t>& partial = coverage->partial_by_row.emplace_back();
  std::vector<std::pair<uint32_t, uint32_t>>& runs =
      coverage->full_runs_by_row.emplace_back();
  for (uint32_t x = lo; x <= hi; ++x) {
    if (!rng->Bernoulli(density)) continue;
    if (!rng->Bernoulli(full)) {
      partial.push_back(x);
    } else if (!runs.empty() && runs.back().second + 1 == x) {
      runs.back().second = x;
    } else {
      runs.emplace_back(x, x);
    }
  }
}

/// True when the quadrant decomposition of \p coverage gives the per-cell
/// oracle's lists.
bool MatchesOracle(const AprilBuilder& builder, const RasterCoverage& coverage) {
  const AprilApproximation oracle = builder.FromCoverage(coverage);
  const AprilApproximation fast = builder.FromCoverageQuadrants(coverage);
  return oracle.conservative == fast.conservative &&
         oracle.progressive == fast.progressive;
}

/// The coverage of a block of at most 8 × 8 cells at (x0, y0): cell
/// (x0 + i, y0 + j) is covered when bit j * width + i of \p cells is set, and
/// full when that bit of \p full is set too; the rest are partial.
RasterCoverage BlockCoverage(uint32_t x0, uint32_t y0, uint32_t width,
                             uint32_t height, uint64_t cells, uint64_t full) {
  RasterCoverage coverage;
  coverage.y0 = y0;
  for (uint32_t j = 0; j < height; ++j) {
    std::vector<uint32_t>& partial = coverage.partial_by_row.emplace_back();
    std::vector<std::pair<uint32_t, uint32_t>>& runs =
        coverage.full_runs_by_row.emplace_back();
    for (uint32_t i = 0; i < width; ++i) {
      const uint32_t bit = j * width + i;
      const uint32_t x = x0 + i;
      if (((cells >> bit) & 1u) == 0) continue;
      if (((full >> bit) & 1u) == 0) {
        partial.push_back(x);
      } else if (!runs.empty() && runs.back().second + 1 == x) {
        runs.back().second = x;
      } else {
        runs.emplace_back(x, x);
      }
    }
  }
  return coverage;
}

/// A random 64-bit mask whose bits are set with probability \p density.
uint64_t RandomMask(Rng* rng, double density) {
  uint64_t mask = 0;
  for (uint32_t bit = 0; bit < 64; ++bit) {
    if (rng->Bernoulli(density)) mask |= uint64_t{1} << bit;
  }
  return mask;
}

TEST(HilbertRuns, LeafKernelMatchesOracleOnEvery4x4PatternInEveryFrame) {
  // A 4×4 block is visited by the curve in one of four orders, one per
  // frame; grid orders 3 and 4 reach all four. Blocks are told apart by
  // the order in which the curve index (not the decomposer's frame table)
  // visits their cells, and each frame gets every one of the 65,536 cell
  // patterns, as full cells so that P and C both carry the pattern.
  std::vector<std::vector<uint32_t>> frames_seen;
  for (const uint32_t order : {3u, 4u}) {
    const RasterGrid grid(Box::Of(Point{0, 0}, Point{1, 1}), order);
    const AprilBuilder builder(&grid);
    const uint32_t n = 1u << order;
    for (uint32_t by = 0; by < n; by += 4) {
      for (uint32_t bx = 0; bx < n; bx += 4) {
        std::vector<std::pair<CellId, uint32_t>> cells;
        for (uint32_t cell = 0; cell < 16; ++cell) {
          cells.emplace_back(grid.CellIdOf(bx + cell % 4, by + cell / 4),
                             cell);
        }
        std::sort(cells.begin(), cells.end());
        std::vector<uint32_t> visit_order;
        for (const auto& [id, cell] : cells) visit_order.push_back(cell);
        if (std::find(frames_seen.begin(), frames_seen.end(), visit_order) !=
            frames_seen.end()) {
          continue;
        }
        frames_seen.push_back(visit_order);
        for (uint64_t pattern = 0; pattern < (uint64_t{1} << 16); ++pattern) {
          ASSERT_TRUE(MatchesOracle(
              builder, BlockCoverage(bx, by, 4, 4, pattern, pattern)))
              << "order " << order << " block (" << bx << ", " << by
              << ") pattern " << pattern;
        }
      }
    }
  }
  EXPECT_EQ(frames_seen.size(), 4u);
}

TEST(HilbertRuns, LeafKernelMatchesOracleOnRandom8x8Blocks) {
  // Random 8×8-aligned blocks with random partial and full cells, fully
  // covered blocks included: a full block is one 64-cell run of the leaf's
  // mask, the case a shift by 64 would break.
  constexpr double kDensities[] = {0.1, 0.5, 0.9, 1.0};
  constexpr double kFullShares[] = {0.0, 0.5, 1.0};
  Rng rng(4244);
  for (int iter = 0; iter < 4000; ++iter) {
    const auto order = static_cast<uint32_t>(rng.UniformInt(3, 12));
    const RasterGrid grid(Box::Of(Point{0, 0}, Point{1, 1}), order);
    const AprilBuilder builder(&grid);
    const int64_t blocks = int64_t{1} << (order - 3);
    const auto bx = static_cast<uint32_t>(8 * rng.UniformInt(0, blocks - 1));
    const auto by = static_cast<uint32_t>(8 * rng.UniformInt(0, blocks - 1));
    const uint64_t cells = RandomMask(&rng, kDensities[rng.NextBounded(4)]);
    const uint64_t full =
        cells & RandomMask(&rng, kFullShares[rng.NextBounded(3)]);
    ASSERT_TRUE(
        MatchesOracle(builder, BlockCoverage(bx, by, 8, 8, cells, full)))
        << "order " << order << " block (" << bx << ", " << by << ") cells "
        << cells << " full " << full;
  }
  for (const uint32_t order : {3u, 4u, 9u, 16u}) {
    const RasterGrid grid(Box::Of(Point{0, 0}, Point{1, 1}), order);
    const AprilBuilder builder(&grid);
    const uint32_t last = (1u << order) - 8;
    for (const uint32_t b : {0u, last}) {
      const RasterCoverage block = BlockCoverage(b, b, 8, 8, ~uint64_t{0},
                                                 ~uint64_t{0});
      EXPECT_TRUE(MatchesOracle(builder, block)) << order << " at " << b;
      EXPECT_EQ(builder.FromCoverageQuadrants(block).progressive.Size(), 1u)
          << order << " at " << b;
    }
  }
}

TEST(HilbertRuns, LeafKernelMatchesOracleOnWindowsCutInsideLeaves) {
  // Coverage windows whose first and last rows fall inside an 8×8 block,
  // half of them ending at the grid's last column, so the leaf reads rows
  // and columns past the window's bounding box.
  Rng rng(4245);
  for (int iter = 0; iter < 3000; ++iter) {
    const auto order = static_cast<uint32_t>(rng.UniformInt(4, 10));
    const RasterGrid grid(Box::Of(Point{0, 0}, Point{1, 1}), order);
    const AprilBuilder builder(&grid);
    const int64_t n = int64_t{1} << order;
    const int64_t x_hi = rng.Bernoulli(0.5) ? n - 1 : rng.UniformInt(0, n - 1);
    const int64_t x_lo = rng.UniformInt(std::max<int64_t>(0, x_hi - 20), x_hi);
    int64_t y0 = rng.UniformInt(0, n - 2);
    if (y0 % 8 == 0) ++y0;
    int64_t rows = rng.UniformInt(1, std::min<int64_t>(n - y0, 20));
    if ((y0 + rows) % 8 == 0) --rows;
    if (rows == 0) continue;
    RasterCoverage coverage;
    coverage.y0 = static_cast<uint32_t>(y0);
    const double density = rng.Bernoulli(0.5) ? 1.0 : 0.6;
    const double full = rng.Bernoulli(0.5) ? 1.0 : 0.5;
    for (int64_t row = 0; row < rows; ++row) {
      AddRow(&rng, static_cast<uint32_t>(x_lo), static_cast<uint32_t>(x_hi),
             density, full, &coverage);
    }
    ASSERT_TRUE(MatchesOracle(builder, coverage))
        << "order=" << order << " window=[" << x_lo << "," << x_hi
        << "] y0=" << y0 << " rows=" << rows;
  }
}

TEST(HilbertRuns, SmallGridsMatchOracleAtAndBelowTheLeaf) {
  // Orders 1 and 2 are smaller than a leaf and recurse to single cells;
  // at order 3 the whole grid is one leaf. Orders 1 and 2 get every cell
  // pattern, each with a random subset of full cells.
  Rng rng(4246);
  for (const uint32_t order : {1u, 2u}) {
    const RasterGrid grid(Box::Of(Point{0, 0}, Point{1, 1}), order);
    const AprilBuilder builder(&grid);
    const uint32_t n = 1u << order;
    for (uint64_t cells = 0; cells < (uint64_t{1} << (n * n)); ++cells) {
      const uint64_t full = cells & RandomMask(&rng, 0.5);
      ASSERT_TRUE(MatchesOracle(builder, BlockCoverage(0, 0, n, n, cells, full)))
          << "order " << order << " cells " << cells << " full " << full;
    }
  }
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{1, 1}), 3);
  const AprilBuilder builder(&grid);
  for (int iter = 0; iter < 20000; ++iter) {
    const uint64_t cells =
        iter == 0 ? ~uint64_t{0} : RandomMask(&rng, rng.Uniform(0.0, 1.0));
    const uint64_t full = cells & RandomMask(&rng, rng.Uniform(0.0, 1.0));
    ASSERT_TRUE(MatchesOracle(builder, BlockCoverage(0, 0, 8, 8, cells, full)))
        << "order 3 cells " << cells << " full " << full;
  }
}

TEST(HilbertRuns, DecompositionMatchesBruteForceOnRandomRuns) {
  // Synthetic coverages built of random runs, decomposed by the quadrant
  // recursion and by the per-cell brute force, at orders 1-10.
  constexpr double kDensities[] = {0.1, 0.5, 0.9, 1.0};
  constexpr double kFullShares[] = {0.0, 0.5, 0.9, 1.0};
  Rng rng(4242);
  for (int iter = 0; iter < 2000; ++iter) {
    const auto order = static_cast<uint32_t>(rng.UniformInt(1, 10));
    const RasterGrid grid(Box::Of(Point{0, 0}, Point{1, 1}), order);
    const AprilBuilder builder(&grid);
    const int64_t n = int64_t{1} << order;
    // A random window of at most 64 rows; dense, all-full rows build whole
    // full quadrants, sparse or all-partial ones fragment the lists.
    int64_t x_lo = rng.UniformInt(0, n - 1);
    int64_t x_hi = rng.UniformInt(0, n - 1);
    if (x_lo > x_hi) std::swap(x_lo, x_hi);
    const int64_t y0 = rng.UniformInt(0, n - 1);
    const int64_t rows = rng.UniformInt(1, std::min<int64_t>(n - y0, 64));
    const double density = kDensities[rng.NextBounded(4)];
    const double full = kFullShares[rng.NextBounded(4)];
    RasterCoverage coverage;
    coverage.y0 = static_cast<uint32_t>(y0);
    for (int64_t row = 0; row < rows; ++row) {
      AddRow(&rng, static_cast<uint32_t>(x_lo), static_cast<uint32_t>(x_hi),
             density, full, &coverage);
    }
    SCOPED_TRACE(testing::Message()
                 << "order=" << order << " window=[" << x_lo << "," << x_hi
                 << "] y0=" << y0 << " rows=" << rows);
    const AprilApproximation fast = builder.FromCoverageQuadrants(coverage);
    EXPECT_TRUE(fast.conservative.Validate().empty());
    EXPECT_TRUE(fast.progressive.Validate().empty());
    ExpectIdentical(builder.FromCoverage(coverage), fast, "synthetic");
    if (HasFailure()) return;
  }
}

TEST(HilbertRuns, DecompositionHandlesFullRowsAtHighOrders) {
  // Full-width rows at high orders exercise the deepest recursions: the
  // curve re-enters a row repeatedly, so even one full row decomposes into
  // ~n/3 intervals, and the lists must cover exactly its n cells.
  Rng rng(4243);
  for (const uint32_t order : {12u, 14u, 16u}) {
    const RasterGrid grid(Box::Of(Point{0, 0}, Point{1, 1}), order);
    const AprilBuilder builder(&grid);
    const uint32_t n = 1u << order;
    RasterCoverage row;
    row.y0 = n / 2;
    row.partial_by_row.emplace_back();
    row.full_runs_by_row.push_back({{0, n - 1}});
    const AprilApproximation one = builder.FromCoverageQuadrants(row);
    EXPECT_EQ(one.conservative.CellCount(), n) << order;
    EXPECT_LE(one.conservative.Size(), static_cast<size_t>(n / 2)) << order;
    EXPECT_TRUE(one.conservative.Validate().empty()) << order;
    EXPECT_TRUE(one.progressive == one.conservative) << order;

    RasterCoverage coverage;
    coverage.y0 = n / 2 - 1;
    for (const double full : {1.0, 0.9, 0.0}) {
      AddRow(&rng, 0, n - 1, /*density=*/1.0, full, &coverage);
    }
    const AprilApproximation fast = builder.FromCoverageQuadrants(coverage);
    ExpectIdentical(builder.FromCoverage(coverage), fast, "full rows");
    EXPECT_EQ(fast.conservative.CellCount(), uint64_t{3} * n) << order;
  }
}

TEST(HilbertRuns, BuilderMatchesOracleOnBlobsAcrossOrdersAndSeeds) {
  for (const uint32_t order : {4u, 8u, 12u, 16u}) {
    const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}), order);
    const AprilBuilder fast(&grid);
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
        ExpectIdentical(Oracle(grid, blob), fast.Build(blob), "blob");
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
    for (const Polygon& poly : cells) {
      ExpectIdentical(Oracle(grid, poly), fast.Build(poly), "tessellation");
    }
  }
}

TEST(HilbertRuns, BuilderMatchesOracleOnSliversAndSingleCells) {
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}), 10);
  const AprilBuilder fast(&grid);

  // Sliver: thinner than a cell, so every covered cell is partial and the
  // P list is empty.
  const Polygon sliver = test::Square(10.0, 50.0, 90.0, 50.001);
  const AprilApproximation sliver_fast = fast.Build(sliver);
  ExpectIdentical(Oracle(grid, sliver), sliver_fast, "sliver");
  EXPECT_TRUE(sliver_fast.progressive.Empty());
  EXPECT_FALSE(sliver_fast.conservative.Empty());

  // Diagonal sliver (touches a staircase of cells, one run per row).
  const Polygon diag = Polygon(Ring({Point{5, 5}, Point{95, 94.99},
                                     Point{95, 95.01}, Point{5, 5.02}}));
  ExpectIdentical(Oracle(grid, diag), fast.Build(diag), "diagonal sliver");

  // Polygon entirely inside one cell.
  const double w = 100.0 / 1024.0;
  const Polygon tiny = test::Square(50.0 * w + 0.1 * w, 50.0 * w + 0.1 * w,
                                    50.0 * w + 0.3 * w, 50.0 * w + 0.3 * w);
  const AprilApproximation tiny_fast = fast.Build(tiny);
  ExpectIdentical(Oracle(grid, tiny), tiny_fast, "single-cell");
  EXPECT_TRUE(tiny_fast.progressive.Empty());

  // Empty polygon: both lists empty in both constructions.
  const Polygon empty;
  const AprilApproximation empty_fast = fast.Build(empty);
  ExpectIdentical(Oracle(grid, empty), empty_fast, "empty");
  EXPECT_TRUE(empty_fast.conservative.Empty());
}

TEST(HilbertRuns, BuilderMatchesOracleAcrossTheBlockPathCutoff) {
  // A polygon with a hole, from 180 cells at order 4 to about nine
  // million at order 12, exercises the empty-interior classification of
  // the quadrant recursion at every scale.
  const Polygon holey = test::SquareWithHole(10, 10, 90, 90, /*hw=*/15);
  for (const uint32_t order : {4u, 6u, 8u, 10u, 12u}) {
    const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}), order);
    const AprilBuilder fast(&grid);
    ExpectIdentical(Oracle(grid, holey), fast.Build(holey), "holey square");
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
  // The fanned-out build must match the serial per-cell oracle object for
  // object.
  const Dataset dataset = BuildDataset("TC", 0.03, 5);
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}), 9);
  const std::vector<AprilApproximation> fast =
      BuildAprilApproximations(dataset, grid, 3);
  ASSERT_EQ(fast.size(), dataset.objects.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    ExpectIdentical(Oracle(grid, dataset.objects[i].geometry), fast[i],
                    "parallel dataset object");
  }
}

}  // namespace
}  // namespace stj
