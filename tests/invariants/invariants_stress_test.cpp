// Structure-churn drills for the deep ValidateInvariants() validators.
// Each test hammers one data structure through the operations most likely to
// break its invariants (LRU eviction and reordering, CSR appends,
// degraded-mode placeholders) and runs the validator at every
// step. The validators are compiled in all build modes, so this test runs
// under the default preset too; the `invariants` preset additionally turns
// on their automatic invocation inside the library.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/geometry/polygon.h"
#include "src/interval/interval_list.h"
#include "src/join/mbr_join.h"
#include "src/raster/april.h"
#include "src/raster/april_store.h"
#include "src/raster/grid.h"
#include "src/topology/prepared_cache.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace stj {
namespace {

TEST(InvariantsStress, PreparedCacheEvictionChurn) {
  // A budget small enough to force constant eviction, keys reused in a
  // pattern that exercises hit-path LRU reordering and evictions of one or
  // several entries per insert.
  const Polygon poly = test::Square(0, 0, 1, 1);
  PreparedCache cache(/*budget_bytes=*/4096);
  Rng rng(1234);
  size_t hits = 0;
  for (int round = 0; round < 4000; ++round) {
    const auto key = static_cast<uint32_t>(rng.UniformInt(0, 96));
    if (cache.Find(key) != nullptr) {
      ++hits;
    } else {
      // Vary entry sizes so eviction stops mid-chain at different points.
      const size_t bytes = 256 + 128 * (key % 7);
      cache.Insert(key, PreparedPolygon(poly), bytes);
    }
    cache.ValidateInvariants();
    ASSERT_LE(cache.bytes(), cache.budget_bytes() + 256 + 128 * 6);
  }
  EXPECT_GT(hits, 0u);
}

TEST(InvariantsStress, PreparedCacheSingleEntryBudget) {
  // A budget smaller than any entry must still keep exactly the newest one.
  const Polygon poly = test::Square(0, 0, 1, 1);
  PreparedCache cache(/*budget_bytes=*/1);
  for (uint32_t key = 0; key < 200; ++key) {
    EXPECT_NE(cache.Insert(key, PreparedPolygon(poly), 1000), nullptr);
    cache.ValidateInvariants();
    EXPECT_EQ(cache.size(), 1u);
  }
}

TEST(InvariantsStress, AprilStoreAppendAndPlaceholderChurn) {
  Rng rng(5678);
  AprilStore store;
  store.ValidateInvariants();  // empty store is valid
  for (int record = 0; record < 500; ++record) {
    if (record % 7 == 3) {
      store.AppendCorruptPlaceholder();
    } else {
      // Random canonical C list; P is a random subset of C's intervals,
      // preserving P ⊆ C by construction.
      std::vector<CellInterval> c;
      CellId cursor = rng.UniformInt(0, 8);
      const int n = static_cast<int>(rng.UniformInt(0, 12));
      for (int i = 0; i < n; ++i) {
        const CellId begin = cursor + 1 + rng.UniformInt(0, 16);
        const CellId end = begin + 1 + rng.UniformInt(0, 32);
        c.push_back(CellInterval{begin, end});
        cursor = end;
      }
      std::vector<CellInterval> p;
      for (const CellInterval& iv : c) {
        if (rng.UniformInt(0, 2) == 0) p.push_back(iv);
      }
      store.AppendRecord(IntervalView(c.data(), c.size()),
                         IntervalView(p.data(), p.size()));
    }
    store.ValidateInvariants();
  }
  EXPECT_EQ(store.Count(), 500u);

  // Round-trip through the legacy vector form preserves the invariants.
  std::vector<AprilApproximation> legacy;
  for (size_t i = 0; i < store.Count(); ++i) {
    AprilApproximation a;
    const IntervalView c = store.Conservative(i);
    const IntervalView p = store.Progressive(i);
    a.conservative = IntervalList::FromSorted(
        std::vector<CellInterval>(c.begin(), c.end()));
    a.progressive =
        IntervalList::FromSorted(std::vector<CellInterval>(p.begin(), p.end()));
    a.usable = store.Usable(i);
    legacy.push_back(std::move(a));
  }
  const AprilStore rebuilt = AprilStore::FromApproximations(legacy);
  rebuilt.ValidateInvariants();
  EXPECT_TRUE(rebuilt == store);
}

TEST(InvariantsStress, AprilBuilderOutputsValidate) {
  Rng rng(91011);
  const RasterGrid grid(Box{Point{0, 0}, Point{16, 16}}, /*order=*/8);
  const AprilBuilder builder(&grid);
  for (int i = 0; i < 50; ++i) {
    const Polygon poly = test::RandomBlob(
        &rng, Point{rng.Uniform(2, 14), rng.Uniform(2, 14)},
        rng.Uniform(0.5, 4.0), 24, /*hole_probability=*/0.4);
    const AprilApproximation april = builder.Build(poly);
    april.ValidateInvariants();
  }
}

TEST(InvariantsStress, MbrJoinUnderInvariants) {
  // Exercises BuildCsr (whose CSR layout validator runs automatically in
  // invariants builds) across thread counts; also re-checks the join's own
  // output invariant: candidate pairs must be exactly the intersecting box
  // pairs, in canonical (r, s) order at every thread count.
  Rng rng(121314);
  std::vector<Box> r;
  std::vector<Box> s;
  for (int i = 0; i < 400; ++i) {
    const double x = rng.Uniform(0, 100);
    const double y = rng.Uniform(0, 100);
    r.push_back(Box{Point{x, y},
                    Point{x + rng.Uniform(0.1, 5), y + rng.Uniform(0.1, 5)}});
    const double u = rng.Uniform(0, 100);
    const double v = rng.Uniform(0, 100);
    s.push_back(Box{Point{u, v},
                    Point{u + rng.Uniform(0.1, 5), v + rng.Uniform(0.1, 5)}});
  }
  const std::vector<CandidatePair> expected = MbrJoin::JoinBruteForce(r, s);
  for (const unsigned threads : {1u, 2u, 4u}) {
    MbrJoin::Options options;
    options.num_threads = threads;
    EXPECT_EQ(MbrJoin::Join(r, s, options), expected) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace stj
