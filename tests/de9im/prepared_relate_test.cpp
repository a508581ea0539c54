// Differential tests for the prepared-geometry refinement path: a relate
// computed through PreparedPolygons — fresh, reused across pairs, or served
// from a Pipeline cache of any budget — must be byte-identical to the cold
// two-polygon path for every pair: cold == prepared == cached-prepared.
// WindowedRelate (windowed_relate_test.cpp) covers the indexed/bare back
// end combinations against the whole-boundary oracle.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/datasets/blob.h"
#include "src/datasets/scenarios.h"
#include "src/datasets/tessellation.h"
#include "src/de9im/relate_engine.h"
#include "src/geometry/prepared_polygon.h"
#include "src/topology/parallel.h"
#include "src/topology/prepared_cache.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace stj::de9im {
namespace {

/// Asserts the matrix equivalence class for one pair: cold 2-arg, fresh
/// (bare) prepared, and the provided (possibly reused, indexed) prepared
/// objects all agree.
void ExpectAllPathsAgree(const Polygon& r, const Polygon& s,
                         const PreparedPolygon& pr, const PreparedPolygon& ps,
                         const std::string& label) {
  const Matrix cold = RelateEngine::Relate(r, s);
  const PreparedPolygon fresh_r(r);
  const PreparedPolygon fresh_s(s);
  const Matrix fresh = RelateEngine::Relate(fresh_r, fresh_s);
  const Matrix reused = RelateEngine::Relate(pr, ps);
  EXPECT_EQ(cold.ToString(), fresh.ToString()) << label;
  EXPECT_EQ(cold.ToString(), reused.ToString()) << label;
}

TEST(PreparedRelateTest, RandomBlobPairsMatchColdPath) {
  Rng rng(211);
  for (int i = 0; i < 60; ++i) {
    const Polygon a = test::RandomBlob(
        &rng, Point{rng.Uniform(0, 6), rng.Uniform(0, 6)},
        rng.LogUniform(0.3, 2.5), static_cast<size_t>(rng.UniformInt(4, 120)),
        /*hole_probability=*/0.3);
    const Polygon b = test::RandomBlob(
        &rng, Point{rng.Uniform(0, 6), rng.Uniform(0, 6)},
        rng.LogUniform(0.3, 2.5), static_cast<size_t>(rng.UniformInt(4, 120)),
        /*hole_probability=*/0.3);
    const PreparedPolygon pa(a);
    const PreparedPolygon pb(b);
    pa.Warm();
    pb.Warm();
    ExpectAllPathsAgree(a, b, pa, pb, "blob pair " + std::to_string(i));
  }
}

TEST(PreparedRelateTest, PreparedObjectsReusedAcrossManyPairs) {
  // One indexed object relates against a stream of bare partners — the
  // cache's access pattern. Every answer must equal the per-pair cold
  // computation, including after the memoized interior point has been
  // materialised by earlier pairs.
  Rng rng(223);
  const Polygon pivot = test::RandomBlob(&rng, Point{5, 5}, 2.0, 96,
                                         /*hole_probability=*/1.0);
  const PreparedPolygon prepared_pivot(pivot);
  prepared_pivot.Warm();
  for (int i = 0; i < 40; ++i) {
    const Polygon partner = test::RandomBlob(
        &rng, Point{rng.Uniform(2, 8), rng.Uniform(2, 8)},
        rng.LogUniform(0.2, 3.0), static_cast<size_t>(rng.UniformInt(4, 90)),
        /*hole_probability=*/0.25);
    const PreparedPolygon prepared_partner(partner);
    ExpectAllPathsAgree(pivot, partner, prepared_pivot, prepared_partner,
                        "pivot-partner " + std::to_string(i));
    // Argument order swapped: the same prepared instances on the other side.
    ExpectAllPathsAgree(partner, pivot, prepared_partner, prepared_pivot,
                        "partner-pivot " + std::to_string(i));
  }
}

TEST(PreparedRelateTest, TessellationNeighborsMatchColdPath) {
  // Shared-boundary pairs exercise the collinear-overlap arrangement path
  // and the interior-point fallback — the cases the prepared cache
  // accelerates most, so exactly where divergence would hurt.
  Rng rng(227);
  TessellationParams params;
  params.cols = 5;
  params.rows = 5;
  params.edge_points = 6;
  const std::vector<Polygon> cells = MakeTessellation(&rng, params);
  std::vector<PreparedPolygon> prepared;
  prepared.reserve(cells.size());
  for (const Polygon& cell : cells) {
    prepared.emplace_back(cell);
    prepared.back().Warm();
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    for (const size_t j : {i + 1, i + 5}) {  // right and upper neighbours
      if (j >= cells.size()) continue;
      ExpectAllPathsAgree(cells[i], cells[j], prepared[i], prepared[j],
                          "cells " + std::to_string(i) + "," +
                              std::to_string(j));
    }
  }
}

TEST(PreparedRelateTest, SharedBoundaryEqualAndFilledPairs) {
  Rng rng(229);
  for (int i = 0; i < 20; ++i) {
    const Polygon blob = test::RandomBlob(
        &rng, Point{rng.Uniform(0, 8), rng.Uniform(0, 8)},
        rng.LogUniform(0.5, 2.0), static_cast<size_t>(rng.UniformInt(12, 100)),
        /*hole_probability=*/1.0);
    const Polygon filled = FillHoles(blob);  // equals blob when no holes
    const PreparedPolygon pb(blob);
    const PreparedPolygon pf(filled);
    pb.Warm();
    pf.Warm();
    ExpectAllPathsAgree(blob, filled, pb, pf, "filled " + std::to_string(i));
    ExpectAllPathsAgree(blob, blob, pb, pb, "self " + std::to_string(i));
  }
}

TEST(PreparedCacheTest, OneEntryBudgetKeepsExactlyOneEntry) {
  Rng rng(233);
  std::vector<Polygon> polys;
  for (int i = 0; i < 6; ++i) {
    polys.push_back(test::RandomBlob(&rng, Point{double(i), 0}, 0.5, 16));
  }
  PreparedCache cache(/*budget_bytes=*/1);  // below any entry's estimate
  for (uint32_t i = 0; i < polys.size(); ++i) {
    EXPECT_EQ(cache.Find(i), nullptr);
    PreparedPolygon prepared(polys[i]);
    prepared.Warm();
    const PreparedPolygon* inserted = cache.Insert(
        i, std::move(prepared), PreparedPolygon::EstimateBytes(polys[i]));
    ASSERT_NE(inserted, nullptr);
    EXPECT_EQ(cache.size(), 1u);           // newest always admitted, alone
    EXPECT_NE(cache.Find(i), nullptr);     // and findable
    if (i > 0) {
      EXPECT_EQ(cache.Find(i - 1), nullptr);  // predecessor evicted
    }
  }
}

TEST(PreparedCacheTest, KeepsEachKeysPassCount) {
  PreparedCache cache(kDefaultPreparedCacheBytes);
  constexpr uint32_t kIndexCost = PreparedPolygon::kIndexAfterScans;
  EXPECT_EQ(cache.Scans(7), 0u);  // never stored
  cache.SetScans(7, kIndexCost - 1);
  cache.SetScans(1000, 1);  // keys are counted independently
  EXPECT_EQ(cache.Scans(7), kIndexCost - 1);
  EXPECT_EQ(cache.Scans(1000), 1u);
  EXPECT_EQ(cache.Scans(999), 0u);
  cache.SetScans(7, 1000);  // capped: an evicted key re-indexes at once
  EXPECT_EQ(cache.Scans(7), kIndexCost);
  EXPECT_EQ(cache.size(), 0u);  // counting inserts nothing
}

TEST(PreparedRelateTest, ABareSideIsIndexedOnceItsScansCostAnIndex) {
  // A bar across a comb's 50 teeth: its two long edges are cut 102 times
  // each, and every piece's midpoint is located against the comb. The
  // comb (103 vertices) and the bar (4) are not both large, so the comb
  // starts bare; it indexes itself at its kIndexAfterScans-th scan instead
  // of being scanned once per piece.
  const Polygon comb = test::Comb(50);
  const Polygon bar = test::Square(-1, 5, 101, 6);
  ASSERT_FALSE(RelateEngine::IndexBoth(bar, comb));
  const PreparedPolygon bare_comb(comb);
  const PreparedPolygon bare_bar(bar);
  const Matrix matrix = RelateEngine::Relate(bare_bar, bare_comb);
  EXPECT_TRUE(bare_comb.Indexed());
  EXPECT_EQ(bare_comb.Scans(), PreparedPolygon::kIndexAfterScans);
  EXPECT_GT(bare_comb.BuildSeconds(), 0.0);
  const PreparedPolygon indexed_comb(comb);
  indexed_comb.Warm();
  EXPECT_EQ(matrix, RelateEngine::Relate(PreparedPolygon(bar), indexed_comb));

  // The scans an object had in earlier pairs count: one short of the
  // threshold, its next scan (the window scan) indexes it.
  const Polygon outer = test::Square(0, 0, 10, 10);
  const Polygon inner = test::Square(4, 4, 5, 5);
  const PreparedPolygon seeded(outer, PreparedPolygon::kIndexAfterScans - 1);
  EXPECT_FALSE(seeded.Indexed());
  RelateEngine::Relate(PreparedPolygon(inner), seeded);
  EXPECT_TRUE(seeded.Indexed());
}

TEST(PreparedRelateTest, OnlyBareSidesCountScans) {
  // Window scans and points located by crossing count are charged to a
  // bare side; an indexed side is never scanned.
  const Polygon outer = test::Square(0, 0, 10, 10);
  const Polygon inner = test::Square(4, 4, 5, 5);
  const PreparedPolygon bare_outer(outer);
  const PreparedPolygon bare_inner(inner);
  RelateEngine::Relate(bare_inner, bare_outer);
  EXPECT_GT(bare_outer.Scans(), 1u);  // a window scan + located midpoints
  EXPECT_GT(bare_inner.Scans(), 0u);
  const PreparedPolygon indexed_outer(outer);
  indexed_outer.Warm();
  RelateEngine::Relate(bare_inner, indexed_outer);
  EXPECT_EQ(indexed_outer.Scans(), 0u);
}

TEST(PreparedCacheTest, LruEvictionOrderUnderByteBudget) {
  Rng rng(239);
  std::vector<Polygon> polys;
  for (int i = 0; i < 8; ++i) {
    polys.push_back(test::RandomBlob(&rng, Point{double(i), 0}, 0.5, 16));
  }
  const size_t per_entry = PreparedPolygon::EstimateBytes(polys[0]);
  PreparedCache cache(3 * per_entry + per_entry / 2);  // holds three
  auto insert = [&](uint32_t key) {
    PreparedPolygon prepared(polys[key]);
    cache.Insert(key, std::move(prepared),
                 PreparedPolygon::EstimateBytes(polys[key]));
  };
  insert(0);
  insert(1);
  insert(2);
  EXPECT_EQ(cache.size(), 3u);
  ASSERT_NE(cache.Find(0), nullptr);  // 0 becomes most-recent
  insert(3);                          // evicts 1, the LRU
  EXPECT_EQ(cache.Find(1), nullptr);
  EXPECT_NE(cache.Find(0), nullptr);
  EXPECT_NE(cache.Find(2), nullptr);
  EXPECT_NE(cache.Find(3), nullptr);
  // Many more inserts than entries fit: eviction churn without losing the
  // entry just inserted.
  for (uint32_t round = 0; round < 64; ++round) {
    const uint32_t key = round % 8;
    if (cache.Find(key) == nullptr) insert(key);
    EXPECT_LE(cache.size(), 4u);
    EXPECT_NE(cache.Find(key), nullptr);
  }
}

TEST(PreparedPipelineTest, CacheBudgetsAndThreadCountsAgree) {
  // The join-level determinism contract: every (budget, thread-count)
  // combination returns the identical relation vector and core counters.
  // Budget 0 disables the cache (the pre-cache behaviour), budget 1 byte
  // degenerates to a single-entry cache (maximum eviction churn), and the
  // default budget is the shipping configuration.
  ScenarioOptions options;
  options.scale = 0.02;
  options.grid_order = 10;
  const ScenarioData scenario = BuildScenario("OLE-OPE", options);
  ASSERT_FALSE(scenario.candidates.empty());

  const JoinOptions reference_options{.num_threads = 1,
                                      .time_stages = false,
                                      .prepared_cache_bytes = 0};
  const ParallelJoinResult reference =
      ParallelFindRelation(Method::kPC, scenario.RView(), scenario.SView(),
                           scenario.candidates, reference_options);
  ASSERT_GT(reference.stats.refined, 0u);
  EXPECT_EQ(reference.stats.prepared_hits, 0u);    // cache disabled:
  EXPECT_EQ(reference.stats.prepared_misses, 0u);  // no lookups recorded
  EXPECT_EQ(reference.stats.prepared_builds, 0u);

  for (const size_t budget : {size_t{1}, kDefaultPreparedCacheBytes}) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      const JoinOptions join_options{.num_threads = threads,
                                     .time_stages = false,
                                     .prepared_cache_bytes = budget};
      const ParallelJoinResult run =
          ParallelFindRelation(Method::kPC, scenario.RView(), scenario.SView(),
                               scenario.candidates, join_options);
      const std::string label = "budget=" + std::to_string(budget) +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(run.relations, reference.relations) << label;
      EXPECT_EQ(run.stats.pairs, reference.stats.pairs) << label;
      EXPECT_EQ(run.stats.refined, reference.stats.refined) << label;
      EXPECT_EQ(run.stats.decided_by_mbr, reference.stats.decided_by_mbr)
          << label;
      EXPECT_EQ(run.stats.decided_by_filter, reference.stats.decided_by_filter)
          << label;
      // Cache telemetry: one lookup per side per refined pair, workers
      // notwithstanding.
      EXPECT_EQ(run.stats.prepared_hits + run.stats.prepared_misses,
                2 * run.stats.refined)
          << label;
      // Only a miss builds an index, at most once per lookup.
      EXPECT_LE(run.stats.prepared_builds, run.stats.prepared_misses)
          << label;
    }
  }
}

TEST(PreparedPipelineTest, PredicateJoinAgreesAcrossBudgets) {
  ScenarioOptions options;
  options.scale = 0.02;
  options.grid_order = 10;
  const ScenarioData scenario = BuildScenario("OLE-OPE", options);
  const JoinOptions reference_options{.num_threads = 1,
                                      .time_stages = false,
                                      .prepared_cache_bytes = 0};
  const ParallelRelateResult reference = ParallelRelate(
      Method::kST2, scenario.RView(), scenario.SView(), scenario.candidates,
      Relation::kIntersects, reference_options);
  for (const size_t budget : {size_t{1}, kDefaultPreparedCacheBytes}) {
    for (const unsigned threads : {1u, 4u}) {
      const JoinOptions join_options{.num_threads = threads,
                                     .time_stages = false,
                                     .prepared_cache_bytes = budget};
      const ParallelRelateResult run = ParallelRelate(
          Method::kST2, scenario.RView(), scenario.SView(),
          scenario.candidates, Relation::kIntersects, join_options);
      EXPECT_EQ(run.matches, reference.matches)
          << "budget=" << budget << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace stj::de9im
