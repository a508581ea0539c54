#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

#include "src/util/check.h"
#include "src/util/thread_annotations.h"

namespace stj {

/// A bounded least-recently-used map from object index to Value: the one
/// LRU behind a worker's caches (PreparedCache, DecodedAprilCache).
///
/// Eviction is by a byte budget over the sizes charged at Insert. The entry
/// just inserted is always kept: a budget smaller than one entry still
/// keeps exactly one warm, which preserves the consecutive-pair reuse the
/// Hilbert-ordered join schedule produces.
///
/// Entries live in a list in recency order (most recent first) and a hash
/// map points into it, so a lookup, a touch and an eviction are O(1) and a
/// cached Value never moves in memory.
template <typename Value>
class WorkerLru {
 public:
  STJ_THREAD_CONFINED(
      "owned by one per-worker cache (PreparedCache, DecodedAprilCache), "
      "whose confinement contract it inherits");

  /// \p budget_bytes bounds the summed charges of cached entries (softly:
  /// the newest entry is kept even when it alone exceeds it).
  explicit WorkerLru(size_t budget_bytes) : budget_(budget_bytes) {}

  size_t budget_bytes() const { return budget_; }
  size_t bytes() const { return bytes_; }
  size_t size() const { return map_.size(); }
  /// Entries dropped to respect the budget so far.
  uint64_t evictions() const { return evictions_; }

  /// The value cached under \p key, or nullptr. A hit becomes the most
  /// recent entry. The pointer stays valid until the entry is evicted, i.e.
  /// at most until the next Insert.
  Value* Find(uint32_t key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->value;
  }

  /// Caches \p value under \p key (which must be absent), charged \p bytes,
  /// then evicts least-recently-used entries until the budget holds, never
  /// this one. Returns the cached value.
  Value* Insert(uint32_t key, Value value, size_t bytes) {
    STJ_DCHECK(map_.find(key) == map_.end());
    lru_.push_front(Entry{key, bytes, std::move(value)});
    map_.emplace(key, lru_.begin());
    bytes_ += bytes;
    while (bytes_ > budget_ && lru_.size() > 1) {
      const Entry& victim = lru_.back();
      bytes_ -= victim.bytes;
      map_.erase(victim.key);
      lru_.pop_back();
      ++evictions_;
    }
    STJ_IF_INVARIANTS(ValidateInvariants());
    return &lru_.front().value;
  }

  /// Aborts (STJ_CHECK) unless the map and the list hold the same entries,
  /// each key once, the byte count is their sum, and the budget holds
  /// whenever more than one entry is cached. Always compiled (the stress
  /// tests call it through eviction churn); Insert runs it under
  /// STJ_IF_INVARIANTS. O(size).
  void ValidateInvariants() const {
    STJ_CHECK_MSG(map_.size() == lru_.size(),
                  "every list entry must have exactly one map slot");
    size_t bytes = 0;
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      const auto found = map_.find(it->key);
      STJ_CHECK_MSG(found != map_.end() && found->second == it,
                    "the map must point at each key's list entry");
      bytes += it->bytes;
    }
    STJ_CHECK_MSG(bytes == bytes_, "byte accounting must match the entries");
    STJ_CHECK_MSG(bytes_ <= budget_ || lru_.size() <= 1,
                  "only a lone newest entry may exceed the budget");
  }

 private:
  struct Entry {
    uint32_t key;
    size_t bytes;
    Value value;
  };

  std::list<Entry> lru_;  // most recently used first
  std::unordered_map<uint32_t, typename std::list<Entry>::iterator> map_;
  size_t budget_;
  size_t bytes_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace stj
