#include "src/raster/decoded_block_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/interval/interval_codec.h"
#include "src/interval/interval_list.h"
#include "src/raster/april_compressed.h"

// The per-worker decoded-record LRU that serves flat views of
// CompressedAprilStore records to the filter stage: hit/miss/eviction
// behaviour under a byte budget, and isolation of records whose payload
// fails to decode (negative caching, no retries, no contamination of
// healthy neighbours).

namespace stj {
namespace {

// A canonical flat interval list whose content is record-specific, so a
// served view can be matched to the record it claims to be.
std::vector<CellInterval> FlatList(uint32_t record, size_t intervals) {
  std::vector<CellInterval> out;
  CellId cell = 1000 * record + 1;
  for (size_t i = 0; i < intervals; ++i) {
    out.push_back(CellInterval{cell, cell + 3});
    cell += 7;
  }
  return out;
}

IntervalView ViewOf(const std::vector<CellInterval>& list) {
  return IntervalView(list.data(), list.size());
}

CompressedAprilStore StoreWithRecords(size_t records, size_t intervals) {
  CompressedAprilStore store;
  for (size_t r = 0; r < records; ++r) {
    const std::vector<CellInterval> c =
        FlatList(static_cast<uint32_t>(r), intervals);
    store.AppendEncoded(ViewOf(c), ViewOf(c));
  }
  return store;
}

void ExpectServes(DecodedAprilCache* cache, const CompressedAprilStore& store,
                  uint32_t idx, size_t intervals) {
  AprilView view;
  const auto outcome = cache->Fetch(store, idx, &view);
  ASSERT_TRUE(outcome == DecodedAprilCache::FetchOutcome::kHit ||
              outcome == DecodedAprilCache::FetchOutcome::kMiss);
  const std::vector<CellInterval> expected = FlatList(idx, intervals);
  ASSERT_EQ(view.conservative.Size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(view.conservative[i], expected[i]) << "record " << idx;
  }
}

TEST(DecodedAprilCacheTest, MissThenHitServesIdenticalViews) {
  const CompressedAprilStore store = StoreWithRecords(4, 6);
  DecodedAprilCache cache(kDefaultDecodedCacheBytes);

  AprilView first;
  ASSERT_EQ(cache.Fetch(store, 2, &first),
            DecodedAprilCache::FetchOutcome::kMiss);
  AprilView second;
  ASSERT_EQ(cache.Fetch(store, 2, &second),
            DecodedAprilCache::FetchOutcome::kHit);
  EXPECT_EQ(cache.Stats().hits, 1u);
  EXPECT_EQ(cache.Stats().misses, 1u);
  ExpectServes(&cache, store, 2, 6);

  // The served flat views must equal what the store itself decodes.
  std::vector<CellInterval> c, p;
  ASSERT_TRUE(store.DecodeRecord(2, &c, &p));
  ASSERT_EQ(second.conservative.Size(), c.size());
  for (size_t i = 0; i < c.size(); ++i) EXPECT_EQ(second.conservative[i], c[i]);
  ASSERT_EQ(second.progressive.Size(), p.size());
  for (size_t i = 0; i < p.size(); ++i) EXPECT_EQ(second.progressive[i], p[i]);
}

TEST(DecodedAprilCacheTest, TinyBudgetEvictsButAlwaysServes) {
  const size_t kRecords = 32;
  const CompressedAprilStore store = StoreWithRecords(kRecords, 64);
  // A budget far below the working set: every record still gets served
  // correctly; the cache holds at least one entry and churns the rest.
  DecodedAprilCache cache(/*budget_bytes=*/1024);
  for (int round = 0; round < 3; ++round) {
    for (uint32_t r = 0; r < kRecords; ++r) {
      ExpectServes(&cache, store, r, 64);
      cache.ValidateInvariants();
    }
  }
  EXPECT_GT(cache.Stats().evictions, 0u);
  EXPECT_GE(cache.size(), 1u);
  // The budget bounds resident bytes up to the single always-kept entry.
  EXPECT_TRUE(cache.bytes() <= cache.budget_bytes() || cache.size() == 1u);
}

TEST(DecodedAprilCacheTest, LruKeepsHotRecordResident) {
  const CompressedAprilStore store = StoreWithRecords(16, 64);
  // Budget for a handful of entries; record 0 is touched between every other
  // access, so it must stay resident while the cold records churn.
  DecodedAprilCache cache(/*budget_bytes=*/8192);
  AprilView view;
  ASSERT_EQ(cache.Fetch(store, 0, &view),
            DecodedAprilCache::FetchOutcome::kMiss);
  for (uint32_t r = 1; r < 16; ++r) {
    cache.Fetch(store, r, &view);
    ASSERT_EQ(cache.Fetch(store, 0, &view),
              DecodedAprilCache::FetchOutcome::kHit)
        << "hot record evicted after touching record " << r;
  }
}

TEST(DecodedAprilCacheTest, UndecodablePayloadIsNegativeCachedAndIsolated) {
  CompressedAprilStore store;
  const std::vector<CellInterval> healthy = FlatList(0, 6);
  store.AppendEncoded(ViewOf(healthy), ViewOf(healthy));
  // A structurally present but undecodable record: the header promises two
  // intervals, the payload has no bytes to decode them from. Usable stays
  // true — this models codec corruption discovered at decode time, not a
  // loader placeholder.
  std::vector<IntervalBlockHeader> bad_headers(1);
  bad_headers[0].first_cell = 10;
  bad_headers[0].last_end = 20;
  bad_headers[0].count = 2;
  bad_headers[0].byte_offset = 0;
  const CompressedIntervalList bad = CompressedIntervalList::FromParts(
      std::move(bad_headers), /*bytes=*/{}, /*num_intervals=*/2);
  store.AppendRecord(bad, bad, /*usable=*/true);
  const std::vector<CellInterval> healthy2 = FlatList(2, 6);
  store.AppendEncoded(ViewOf(healthy2), ViewOf(healthy2));

  DecodedAprilCache cache(kDefaultDecodedCacheBytes);
  AprilView view;
  EXPECT_EQ(cache.Fetch(store, 1, &view),
            DecodedAprilCache::FetchOutcome::kCorrupt);
  // Negative-cached: the second lookup must not re-decode (misses stays 1).
  EXPECT_EQ(cache.Fetch(store, 1, &view),
            DecodedAprilCache::FetchOutcome::kCorrupt);
  EXPECT_EQ(cache.Stats().misses, 1u);
  EXPECT_EQ(cache.Stats().corrupt, 2u);
  EXPECT_EQ(cache.Stats().hits, 0u);
  // Healthy neighbours are unaffected.
  ExpectServes(&cache, store, 0, 6);
  ExpectServes(&cache, store, 2, 6);
}

TEST(DecodedAprilCacheTest, UnusableAndOutOfRangeAreAbsentWithoutTraffic) {
  CompressedAprilStore store;
  const std::vector<CellInterval> healthy = FlatList(0, 4);
  store.AppendEncoded(ViewOf(healthy), ViewOf(healthy));
  store.AppendCorruptPlaceholder();

  DecodedAprilCache cache(kDefaultDecodedCacheBytes);
  AprilView view;
  EXPECT_EQ(cache.Fetch(store, 1, &view),
            DecodedAprilCache::FetchOutcome::kAbsent);
  EXPECT_EQ(cache.Fetch(store, 7, &view),
            DecodedAprilCache::FetchOutcome::kAbsent);
  EXPECT_EQ(cache.Stats().hits, 0u);
  EXPECT_EQ(cache.Stats().misses, 0u);
  EXPECT_EQ(cache.Stats().corrupt, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(DecodedAprilCacheTest, EmptyRecordDecodesToEmptyViews) {
  CompressedAprilStore store;
  store.AppendEncoded(IntervalView(nullptr, 0), IntervalView(nullptr, 0));
  DecodedAprilCache cache(kDefaultDecodedCacheBytes);
  AprilView view;
  ASSERT_EQ(cache.Fetch(store, 0, &view),
            DecodedAprilCache::FetchOutcome::kMiss);
  EXPECT_EQ(view.conservative.Size(), 0u);
  EXPECT_EQ(view.progressive.Size(), 0u);
}

}  // namespace
}  // namespace stj
