// Tests for the arena-backed AprilStore: CSR layout and views, and
// equivalence with the legacy vector<AprilApproximation> storage throughout
// the pipeline, unusable records included — and a mapped record that fails
// its record sum reads as one of them.

#include "src/raster/april_store.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/datasets/scenarios.h"
#include "src/interval/interval_algebra.h"
#include "src/raster/april_compressed.h"
#include "src/topology/pipeline.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace stj {
namespace {

std::vector<AprilApproximation> MakeApproximations(int count, uint64_t seed) {
  Rng rng(seed);
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{64, 64}), 7);
  const AprilBuilder builder(&grid);
  std::vector<AprilApproximation> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(builder.Build(test::RandomBlob(
        &rng, Point{rng.Uniform(10, 54), rng.Uniform(10, 54)},
        rng.LogUniform(1.0, 8.0), 24, 0.3)));
  }
  return out;
}

TEST(AprilStore, ViewsMirrorTheSourceApproximations) {
  const std::vector<AprilApproximation> source = MakeApproximations(8, 17);
  const AprilStore store = AprilStore::FromApproximations(source);
  ASSERT_EQ(store.Count(), source.size());
  for (size_t i = 0; i < source.size(); ++i) {
    EXPECT_TRUE(store.Usable(i));
    EXPECT_TRUE(store.Conservative(i) == IntervalView(source[i].conservative))
        << i;
    EXPECT_TRUE(store.Progressive(i) == IntervalView(source[i].progressive))
        << i;
    // Views feed the interval algebra directly.
    EXPECT_TRUE(ListInside(store.View(i).progressive,
                           store.View(i).conservative))
        << i;
  }
  EXPECT_EQ(store.IntervalByteSize(),
            [&] {
              size_t total = 0;
              for (const AprilApproximation& a : source) total += a.ByteSize();
              return total;
            }());
}

TEST(AprilStore, EmptyAndClearedStores) {
  AprilStore store;
  EXPECT_TRUE(store.Empty());
  EXPECT_EQ(store.Count(), 0u);
  store.AppendRecord(IntervalView(), IntervalView());
  EXPECT_EQ(store.Count(), 1u);
  EXPECT_TRUE(store.Conservative(0).Empty());
  EXPECT_TRUE(store.Usable(0));
  store.AppendCorruptPlaceholder();
  EXPECT_FALSE(store.Usable(1));
  store.Clear();
  EXPECT_TRUE(store.Empty());
  EXPECT_TRUE(store == AprilStore());
}

TEST(AprilStore, PipelineResultsMatchLegacyVectorsForAllMethods) {
  ScenarioOptions options;
  options.scale = 0.02;
  options.grid_order = 9;
  const ScenarioData scenario = BuildScenario("TL-TW", options);
  ASSERT_FALSE(scenario.candidates.empty());
  const AprilStore r_store = AprilStore::FromApproximations(scenario.r_april);
  const AprilStore s_store = AprilStore::FromApproximations(scenario.s_april);
  const DatasetView r_arena{&scenario.r.objects, nullptr, &r_store};
  const DatasetView s_arena{&scenario.s.objects, nullptr, &s_store};

  for (const Method method :
       {Method::kST2, Method::kOP2, Method::kApril, Method::kPC}) {
    Pipeline legacy(method, scenario.RView(), scenario.SView());
    Pipeline arena(method, r_arena, s_arena);
    for (const CandidatePair& pair : scenario.candidates) {
      EXPECT_EQ(legacy.FindRelation(pair.r_idx, pair.s_idx),
                arena.FindRelation(pair.r_idx, pair.s_idx))
          << ToString(method) << " pair (" << pair.r_idx << ","
          << pair.s_idx << ")";
    }
    EXPECT_EQ(legacy.Stats().refined, arena.Stats().refined)
        << ToString(method);
    EXPECT_EQ(legacy.Stats().decided_by_filter, arena.Stats().decided_by_filter)
        << ToString(method);

    // relate_p goes through the same storages.
    Pipeline legacy_rel(method, scenario.RView(), scenario.SView());
    Pipeline arena_rel(method, r_arena, s_arena);
    for (const de9im::Relation p :
         {de9im::Relation::kIntersects, de9im::Relation::kInside,
          de9im::Relation::kMeets}) {
      for (size_t k = 0; k < std::min<size_t>(scenario.candidates.size(), 50);
           ++k) {
        const CandidatePair& pair = scenario.candidates[k];
        EXPECT_EQ(legacy_rel.Relate(pair.r_idx, pair.s_idx, p),
                  arena_rel.Relate(pair.r_idx, pair.s_idx, p))
            << ToString(method);
      }
    }
  }
}

TEST(AprilStore, PipelineFallsBackOnUnusableStoreRecords) {
  ScenarioOptions options;
  options.scale = 0.02;
  options.grid_order = 9;
  const ScenarioData scenario = BuildScenario("TL-TW", options);
  ASSERT_FALSE(scenario.candidates.empty());
  // Rebuild the r store with every record unusable: kPC must refine every
  // non-MBR-decided pair, and results must equal the approximation-free ST2.
  AprilStore r_broken;
  for (size_t i = 0; i < scenario.r_april.size(); ++i) {
    r_broken.AppendCorruptPlaceholder();
  }
  const AprilStore s_store = AprilStore::FromApproximations(scenario.s_april);
  Pipeline degraded(Method::kPC,
                    DatasetView{&scenario.r.objects, nullptr, &r_broken},
                    DatasetView{&scenario.s.objects, nullptr, &s_store});
  Pipeline reference(Method::kST2, scenario.RView(), scenario.SView());
  for (const CandidatePair& pair : scenario.candidates) {
    EXPECT_EQ(degraded.FindRelation(pair.r_idx, pair.s_idx),
              reference.FindRelation(pair.r_idx, pair.s_idx));
  }
  EXPECT_GT(degraded.Stats().fallback_refined, 0u);
}

TEST(AprilStore, CorruptRecordBecomesUnusablePlaceholder) {
  // A mapped record that fails its record sum — a shard tile's list record
  // with a flipped byte — is read as an unusable placeholder: the join gets
  // exactly the relations, filter decisions and fallback refinements it gets
  // from a store holding a placeholder at that index, so the records after
  // it stay index-aligned.
  ScenarioOptions options;
  options.scale = 0.02;
  options.grid_order = 9;
  const ScenarioData scenario = BuildScenario("TL-TW", options);
  ASSERT_FALSE(scenario.candidates.empty());
  const AprilStore r_flat = AprilStore::FromApproximations(scenario.r_april);
  const CompressedAprilStore r_blocked =
      CompressedAprilStore::FromStore(r_flat);
  const CompressedStoreSpans& spans = r_blocked.Spans();
  // The victim: the first candidate's r record with payload bytes to flip.
  size_t victim = r_flat.Count();
  for (const CandidatePair& pair : scenario.candidates) {
    if (spans.byte_begin[pair.r_idx + 1] > spans.byte_begin[pair.r_idx]) {
      victim = pair.r_idx;
      break;
    }
  }
  ASSERT_LT(victim, r_flat.Count());

  // The records mapped over a damaged copy of the payload arena, with the
  // sums of the intact records.
  std::vector<uint8_t> bytes(spans.bytes,
                             spans.bytes + spans.byte_begin[spans.count]);
  bytes[spans.byte_begin[victim]] ^= 0x40;
  std::vector<uint64_t> sums(r_blocked.Count());
  for (size_t i = 0; i < sums.size(); ++i) {
    sums[i] = r_blocked.RecordChecksum(i);
  }
  CompressedStoreSpans damaged = spans;
  damaged.bytes = bytes.data();
  damaged.record_fnv = sums.data();
  const CompressedAprilStore r_corrupt =
      CompressedAprilStore::FromSpans(damaged);
  ASSERT_TRUE(r_corrupt.Usable(victim));

  AprilStore r_placeholder;
  for (size_t i = 0; i < r_flat.Count(); ++i) {
    if (i == victim) {
      r_placeholder.AppendCorruptPlaceholder();
    } else {
      r_placeholder.AppendRecord(r_flat.Conservative(i),
                                 r_flat.Progressive(i), r_flat.Usable(i));
    }
  }
  const AprilStore s_store = AprilStore::FromApproximations(scenario.s_april);
  const DatasetView s_view{&scenario.s.objects, nullptr, &s_store};
  Pipeline corrupt(Method::kPC,
                   DatasetView{&scenario.r.objects, nullptr, nullptr,
                               &r_corrupt},
                   s_view);
  Pipeline placeholder(
      Method::kPC, DatasetView{&scenario.r.objects, nullptr, &r_placeholder},
      s_view);
  Pipeline reference(Method::kST2, scenario.RView(), scenario.SView());
  for (const CandidatePair& pair : scenario.candidates) {
    const de9im::Relation expected =
        reference.FindRelation(pair.r_idx, pair.s_idx);
    EXPECT_EQ(corrupt.FindRelation(pair.r_idx, pair.s_idx), expected)
        << "pair (" << pair.r_idx << "," << pair.s_idx << ")";
    EXPECT_EQ(placeholder.FindRelation(pair.r_idx, pair.s_idx), expected)
        << "pair (" << pair.r_idx << "," << pair.s_idx << ")";
  }
  EXPECT_EQ(corrupt.Stats().decided_by_filter,
            placeholder.Stats().decided_by_filter);
  EXPECT_EQ(corrupt.Stats().fallback_refined,
            placeholder.Stats().fallback_refined);
  EXPECT_GT(corrupt.Stats().fallback_refined, 0u);
  EXPECT_GT(corrupt.Stats().decoded_corrupt, 0u);
}

}  // namespace
}  // namespace stj
