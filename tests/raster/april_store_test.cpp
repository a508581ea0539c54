// Tests for the arena-backed AprilStore: CSR layout and views, equivalence
// with the legacy vector<AprilApproximation> storage throughout the pipeline,
// and the one-pass corruption-isolating load from APRIL files.

#include "src/raster/april_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/datasets/scenarios.h"
#include "src/interval/interval_algebra.h"
#include "src/raster/april_io.h"
#include "src/topology/pipeline.h"
#include "src/util/rng.h"
#include "tests/robustness/corrupter.h"
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

TEST(AprilStore, LoadRoundTripsBothEncodings) {
  // One file, both in-memory encodings: the flat arena decodes every
  // record, the compressed store keeps the blocks as written.
  const std::vector<AprilApproximation> source = MakeApproximations(7, 43);
  const AprilStore original = AprilStore::FromApproximations(source);
  const CompressedAprilStore blocked = CompressedAprilStore::FromStore(original);
  const std::string path = test::TempPath("store_roundtrip.bin");
  ASSERT_TRUE(SaveAprilStoreBlocked(path, blocked));
  AprilStore loaded;
  AprilLoadReport report;
  ASSERT_TRUE(LoadAprilStore(path, &loaded, &report).ok());
  EXPECT_FALSE(report.Degraded());
  EXPECT_EQ(report.loaded, source.size());
  EXPECT_TRUE(loaded == original);
  CompressedAprilStore loaded_blocked;
  ASSERT_TRUE(LoadCompressedAprilStore(path, &loaded_blocked, &report).ok());
  EXPECT_FALSE(report.Degraded());
  EXPECT_TRUE(loaded_blocked == blocked);
  std::remove(path.c_str());
}

TEST(AprilStore, CorruptRecordBecomesUnusablePlaceholder) {
  const std::vector<AprilApproximation> source = MakeApproximations(5, 61);
  const std::string path = test::TempPath("store_corrupt.bin");
  ASSERT_TRUE(SaveAprilStoreBlocked(
      path, CompressedAprilStore::FromStore(
                AprilStore::FromApproximations(source))));
  std::string bytes = test::ReadFileBytes(path);
  // Flip one payload byte of record 2. Frames: header is 16 bytes, each
  // record is 16 bytes of frame + payload.
  size_t off = 16;
  for (int skip = 0; skip < 2; ++skip) {
    uint64_t payload_size = 0;
    std::memcpy(&payload_size, bytes.data() + off, sizeof payload_size);
    off += 16 + payload_size;
  }
  ASSERT_LT(off + 20, bytes.size());
  bytes[off + 17] = static_cast<char>(bytes[off + 17] ^ 0x40);
  test::WriteFileBytes(path, bytes);

  AprilStore loaded;
  AprilLoadReport report;
  ASSERT_TRUE(LoadAprilStore(path, &loaded, &report).ok());
  ASSERT_EQ(loaded.Count(), source.size());
  EXPECT_TRUE(report.Degraded());
  EXPECT_EQ(report.corrupt, 1u);
  ASSERT_EQ(report.corrupt_indices.size(), 1u);
  EXPECT_EQ(report.corrupt_indices[0], 2u);
  for (size_t i = 0; i < loaded.Count(); ++i) {
    if (i == 2) {
      // The placeholder keeps later records index-aligned.
      EXPECT_FALSE(loaded.Usable(i));
      EXPECT_TRUE(loaded.Conservative(i).Empty());
      EXPECT_TRUE(loaded.Progressive(i).Empty());
    } else {
      EXPECT_TRUE(loaded.Usable(i)) << i;
      EXPECT_TRUE(loaded.Conservative(i) ==
                  IntervalView(source[i].conservative))
          << i;
    }
  }
  std::remove(path.c_str());
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

}  // namespace
}  // namespace stj
