// Oracle fuzzing of the interval relations: every relation is checked
// against a per-cell set oracle over randomized and adversarial list shapes,
// and the join is checked end to end across storage forms.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/datasets/scenarios.h"
#include "src/interval/interval_algebra.h"
#include "src/interval/interval_codec.h"
#include "src/topology/pipeline.h"
#include "src/util/rng.h"

namespace stj {
namespace {

// ---- per-cell reference implementations ----

std::set<CellId> CellsOf(const IntervalList& list) {
  std::set<CellId> cells;
  for (size_t i = 0; i < list.Size(); ++i) {
    for (CellId c = list[i].begin; c < list[i].end; ++c) cells.insert(c);
  }
  return cells;
}

bool RefOverlap(const IntervalList& x, const IntervalList& y) {
  const auto a = CellsOf(x);
  for (const CellId c : CellsOf(y)) {
    if (a.count(c) != 0) return true;
  }
  return false;
}

bool RefInside(const IntervalList& x, const IntervalList& y) {
  const auto b = CellsOf(y);
  for (const CellId c : CellsOf(x)) {
    if (b.count(c) == 0) return false;
  }
  return true;
}

uint64_t RefCommon(const IntervalList& x, const IntervalList& y) {
  const auto a = CellsOf(x);
  uint64_t n = 0;
  for (const CellId c : CellsOf(y)) n += a.count(c);
  return n;
}

// ---- list shape generators (the bench sweep's shapes, smaller) ----

IntervalList RandomList(Rng* rng, CellId universe, double density) {
  std::vector<CellId> cells;
  for (CellId c = 0; c < universe; ++c) {
    if (rng->Bernoulli(density)) cells.push_back(c);
  }
  return IntervalList::FromCells(std::move(cells));
}

// Many tiny intervals (width 1-2, small gaps).
IntervalList ManyTiny(Rng* rng, size_t n) {
  IntervalList list;
  CellId at = rng->NextBounded(16);
  for (size_t i = 0; i < n; ++i) {
    const CellId len = 1 + rng->NextBounded(2);
    list.Append(at, at + len);
    at += len + 1 + rng->NextBounded(4);
  }
  return list;
}

// One huge interval somewhere in the universe.
IntervalList OneHuge(Rng* rng, CellId universe) {
  const CellId begin = rng->NextBounded(universe / 2);
  const CellId end = begin + 1 + rng->NextBounded(universe - begin);
  IntervalList list;
  list.Append(begin, end);
  return list;
}

// A random subset of x's cells (for inside/contains truthy cases).
IntervalList SubsetOf(Rng* rng, const IntervalList& x, double keep) {
  std::vector<CellId> cells;
  for (const CellId c : CellsOf(x)) {
    if (rng->Bernoulli(keep)) cells.push_back(c);
  }
  return IntervalList::FromCells(std::move(cells));
}

// ---- the oracle harness ----

// Evaluates all five relations on (x, y) and checks them against the
// per-cell oracle.
void CheckPair(const IntervalList& x, const IntervalList& y) {
  const bool overlap = RefOverlap(x, y);
  const bool inside = RefInside(x, y);      // vacuously true for empty x
  const bool contains = RefInside(y, x);
  const bool match = x == y;
  const uint64_t common = RefCommon(x, y);

  ASSERT_EQ(ListsOverlap(x, y), overlap);
  ASSERT_EQ(ListsOverlap(y, x), overlap);
  ASSERT_EQ(ListInside(x, y), inside);
  ASSERT_EQ(ListContains(x, y), contains);
  ASSERT_EQ(ListsMatch(x, y), match);
  ASSERT_EQ(ListsCommonCells(x, y), common);
  ASSERT_EQ(ListsCommonCells(y, x), common);
}

TEST(IntervalOracle, RandomDenseAndSparsePairs) {
  Rng rng(20260807);
  const double densities[] = {0.02, 0.2, 0.5, 0.85};
  for (const double dx : densities) {
    for (const double dy : densities) {
      for (int trial = 0; trial < 6; ++trial) {
        const IntervalList x = RandomList(&rng, 1500, dx);
        const IntervalList y = RandomList(&rng, 1500, dy);
        CheckPair(x, y);
        if (::testing::Test::HasFatalFailure()) {
          FAIL() << "densities " << dx << "/" << dy << " trial " << trial;
        }
      }
    }
  }
}

TEST(IntervalOracle, AdversarialShapes) {
  Rng rng(404);
  for (int trial = 0; trial < 25; ++trial) {
    // Many tiny vs one huge: the gallop/skip paths on both sides.
    CheckPair(ManyTiny(&rng, 200), OneHuge(&rng, 1200));
    // Heavy overlap: two dense lists over the same universe.
    CheckPair(RandomList(&rng, 800, 0.7), RandomList(&rng, 800, 0.7));
    // Disjoint ranges: y entirely above x (pre-check path).
    IntervalList lo = ManyTiny(&rng, 50);
    IntervalList hi;
    hi.Append(lo.BackEnd() + 5, lo.BackEnd() + 100);
    CheckPair(lo, hi);
    if (::testing::Test::HasFatalFailure()) FAIL() << "trial " << trial;
  }
}

TEST(IntervalOracle, InsideAndMatchTruthyCases) {
  // Random pairs almost never satisfy inside/match; construct them.
  Rng rng(777);
  for (int trial = 0; trial < 25; ++trial) {
    const IntervalList y = RandomList(&rng, 2000, rng.Uniform(0.2, 0.8));
    if (y.Empty()) continue;
    CheckPair(SubsetOf(&rng, y, 0.6), y);    // usually strictly inside
    CheckPair(y, y);                          // match (and inside both ways)
    CheckPair(y, SubsetOf(&rng, y, 0.9));    // contains direction
    if (::testing::Test::HasFatalFailure()) FAIL() << "trial " << trial;
  }
}

TEST(IntervalOracle, EmptyAndBoundaryLists) {
  Rng rng(5);
  const IntervalList empty;
  const IntervalList one = IntervalList::FromCells({7});
  const IntervalList some = RandomList(&rng, 300, 0.3);
  CheckPair(empty, empty);
  CheckPair(empty, some);
  CheckPair(some, empty);
  CheckPair(one, some);
  CheckPair(one, one);
}

TEST(IntervalOracle, BlockBoundaryStraddles) {
  // Interval counts around multiples of the codec block size, with the
  // interesting cells placed near block seams. The relations run on the
  // codec's decoded lists — the form compressed records reach the filters
  // in — which must be the original lists exactly.
  Rng rng(31);
  for (const size_t n :
       {kCodecBlockIntervals - 1, kCodecBlockIntervals,
        kCodecBlockIntervals + 1, 3 * kCodecBlockIntervals - 1,
        3 * kCodecBlockIntervals + 2}) {
    IntervalList x;
    for (size_t i = 0; i < n; ++i) {
      const CellId base = static_cast<CellId>(i) * 6;
      x.Append(base, base + 2 + rng.NextBounded(3));
    }
    // y overlaps only around x's block seams.
    IntervalList y;
    for (size_t b = kCodecBlockIntervals; b < n; b += kCodecBlockIntervals) {
      const CellId seam = static_cast<CellId>(b) * 6;
      y.Append(seam - 3, seam + 3);
    }
    const IntervalList dx = CompressedIntervalList::Encode(x).Decode();
    const IntervalList dy = CompressedIntervalList::Encode(y).Decode();
    ASSERT_EQ(dx, x) << n << " intervals";
    ASSERT_EQ(dy, y) << n << " intervals";
    CheckPair(dx, dy);
    if (::testing::Test::HasFatalFailure()) FAIL() << n << " intervals";
  }
}

// ---- end-to-end join identity across storages ----

TEST(IntervalOracle, JoinDecisionsIdenticalAcrossStorages) {
  ScenarioOptions options;
  options.scale = 0.02;
  options.grid_order = 10;
  const ScenarioData scenario = BuildScenario("TC-TZ", options);
  ASSERT_FALSE(scenario.candidates.empty());

  const AprilStore r_store = AprilStore::FromApproximations(scenario.r_april);
  const AprilStore s_store = AprilStore::FromApproximations(scenario.s_april);
  const CompressedAprilStore r_cstore =
      CompressedAprilStore::FromStore(r_store);
  const CompressedAprilStore s_cstore =
      CompressedAprilStore::FromStore(s_store);

  const auto run = [&](const DatasetView& r_view, const DatasetView& s_view) {
    Pipeline pc(Method::kPC, r_view, s_view);
    std::vector<de9im::Relation> out;
    out.reserve(scenario.candidates.size());
    for (const CandidatePair& pair : scenario.candidates) {
      out.push_back(pc.FindRelation(pair.r_idx, pair.s_idx));
    }
    return out;
  };

  const DatasetView r_flat{&scenario.r.objects, &scenario.r_april};
  const DatasetView s_flat{&scenario.s.objects, &scenario.s_april};
  const DatasetView r_comp{&scenario.r.objects, nullptr, nullptr, &r_cstore};
  const DatasetView s_comp{&scenario.s.objects, nullptr, nullptr, &s_cstore};

  ASSERT_EQ(run(r_flat, s_flat), run(r_comp, s_comp))
      << "compressed storage changed join results";
}

}  // namespace
}  // namespace stj
