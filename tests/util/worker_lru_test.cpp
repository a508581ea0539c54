#include "src/util/worker_lru.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "src/util/rng.h"

// The per-worker LRU under both caches (PreparedCache, DecodedAprilCache):
// recency order, the byte budget, the always-kept newest entry, eviction
// counting, stable values and move-only payloads.

namespace stj {
namespace {

TEST(WorkerLru, EvictsTheLeastRecentlyUsedFirst) {
  WorkerLru<std::string> lru(/*budget_bytes=*/30);
  lru.Insert(1, "one", 10);
  lru.Insert(2, "two", 10);
  lru.Insert(3, "three", 10);
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(lru.bytes(), 30u);
  ASSERT_NE(lru.Find(1), nullptr);  // 1 becomes the most recent
  lru.Insert(4, "four", 10);        // evicts 2, the least recent
  EXPECT_EQ(lru.Find(2), nullptr);
  ASSERT_NE(lru.Find(1), nullptr);
  EXPECT_EQ(*lru.Find(1), "one");
  EXPECT_NE(lru.Find(3), nullptr);
  EXPECT_NE(lru.Find(4), nullptr);
  EXPECT_EQ(lru.evictions(), 1u);
  lru.ValidateInvariants();
}

TEST(WorkerLru, KeepsTheNewestEntryOverBudget) {
  WorkerLru<int> lru(/*budget_bytes=*/5);
  lru.Insert(7, 70, 4);
  EXPECT_EQ(*lru.Insert(8, 80, 100), 80);  // alone above the budget
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(lru.Find(7), nullptr);
  EXPECT_EQ(lru.bytes(), 100u);
  lru.ValidateInvariants();
  lru.Insert(9, 90, 3);  // evicts 8; 9 fits alone
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(lru.bytes(), 3u);
  EXPECT_EQ(lru.evictions(), 2u);
}

TEST(WorkerLru, CachedValuesStayPutAndMoveOnlyValuesWork) {
  WorkerLru<std::unique_ptr<int>> lru(/*budget_bytes=*/1000);
  std::unique_ptr<int>* first = lru.Insert(0, std::make_unique<int>(42), 1);
  for (uint32_t key = 1; key < 100; ++key) {
    lru.Insert(key, std::make_unique<int>(static_cast<int>(key)), 1);
  }
  EXPECT_EQ(lru.Find(0), first);  // never moved while cached
  EXPECT_EQ(**first, 42);
  EXPECT_EQ(lru.evictions(), 0u);
}

TEST(WorkerLru, ChurnKeepsTheInvariants) {
  // Entries of varying size under a budget of a few: each insert evicts
  // none, one or several, and hits reorder the list in between.
  WorkerLru<uint32_t> lru(/*budget_bytes=*/2048);
  Rng rng(71);
  uint64_t hits = 0;
  for (int round = 0; round < 5000; ++round) {
    const auto key = static_cast<uint32_t>(rng.UniformInt(0, 63));
    if (const uint32_t* value = lru.Find(key)) {
      EXPECT_EQ(*value, key * 3);
      ++hits;
    } else {
      lru.Insert(key, key * 3, 128 + 64 * (key % 11));
    }
    lru.ValidateInvariants();
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(lru.evictions(), 0u);
}

}  // namespace
}  // namespace stj
