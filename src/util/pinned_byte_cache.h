#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "src/util/check.h"
#include "src/util/exec_context.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace stj {

/// Counter snapshot of one PinnedByteLruCache (plain values, safe to copy
/// after the run).
struct PinnedCacheStats {
  uint64_t hits = 0;       ///< Get served a resident entry.
  uint64_t loads = 0;      ///< Get ran the loader (miss).
  uint64_t evictions = 0;  ///< Entries dropped to respect the budget.
  uint64_t peak_bytes = 0; ///< High-water resident bytes.
};

/// Byte-budgeted LRU cache with a pin table and ExecContext charge
/// accounting — the resident-shard cache of the tile-pair scheduler
/// (topology/shard_scheduler.cpp), extracted so the pin/evict/charge
/// protocol is one annotated, model-checkable component instead of a
/// private class baked into the scheduler loop.
///
/// Protocol (the invariants tests/model/cache_model_test.cpp exhaustively
/// verifies over all small-state interleavings):
///  - *Pinned entries are never evicted.* Pin(key) marks a key in use
///    (counted, so independent pinners compose); eviction walks the LRU
///    tail skipping pinned keys. A budget smaller than the pinned set
///    degrades to holding exactly the pinned entries — over budget but
///    correct, matching the scheduler's "every running task's two shards
///    always fit" contract.
///  - *Charges balance.* Every resident entry's bytes are charged to the
///    ExecContext budget exactly once at load and released exactly once —
///    on eviction or in the destructor. A failed TryCharge abandons the
///    load (nothing resident, nothing charged) and surfaces the context's
///    Status, so a budget trip unwinds cooperatively.
///  - *Admission.* The entry being loaded is always admitted once charged:
///    cold entries are evicted first until it fits or nothing evictable
///    remains. bytes() can therefore exceed budget_bytes() only by live
///    pins plus the newest entry — never by forgotten residents.
///
/// Thread safety: every operation takes mutex_; the pin table, LRU list,
/// index, and byte accounting are all STJ_GUARDED_BY it, so a clang
/// -Wthread-safety build statically rejects unlocked access. The loader
/// runs *under the lock* — concurrent misses serialize. That is the right
/// trade for the scheduler today: its workers run tile-pair tasks in
/// parallel, but the task order loads each large shard about once, so the
/// loads are a small share of a join's time, and a worker that misses on a
/// shard another worker is loading gets a hit instead of a second mapping.
/// It also keeps the protocol small enough to model-check exhaustively; a
/// resident service wanting parallel misses would split the lock,
/// re-proving the protocol in tests/model/ first.
///
/// Pointer stability: Get returns a pointer into the entry list; it stays
/// valid until the entry is evicted. Callers that use the value beyond the
/// Get call must hold a pin across the use (PinGuard), which is exactly
/// what makes eviction of in-use entries impossible rather than unlikely.
template <typename Value>
class PinnedByteLruCache {
 public:
  /// Fills *value and *bytes (the resident footprint charged to the budget
  /// and the ExecContext). A non-ok Status aborts the load; nothing is
  /// cached or charged.
  using Loader = std::function<Status(Value* value, size_t* bytes)>;

  /// \p exec may be null (no charge accounting). The cache does not own it;
  /// it must outlive the cache.
  PinnedByteLruCache(size_t budget_bytes, ExecContext* exec)
      : budget_(budget_bytes), exec_(exec) {}

  PinnedByteLruCache(const PinnedByteLruCache&) = delete;
  PinnedByteLruCache& operator=(const PinnedByteLruCache&) = delete;

  ~PinnedByteLruCache() {
    // Balance: everything still resident was charged exactly once.
    if (exec_ != nullptr) exec_->Release(bytes_);
  }

  /// Returns the resident value for \p key, running \p load on a miss and
  /// evicting cold (unpinned) entries to make room. Null on failure with
  /// the cause in *status: the loader's error, or the ExecContext budget
  /// trip when the charge did not fit.
  const Value* Get(uint64_t key, const Loader& load, Status* status)
      STJ_EXCLUDES(mutex_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      return &it->second->value;
    }

    Entry entry;
    entry.key = key;
    Status st = load(&entry.value, &entry.bytes);
    if (!st.ok()) {
      *status = st;
      return nullptr;
    }
    ++stats_.loads;

    // Evict cold entries until the newcomer fits (pinned entries and the
    // newcomer itself are exempt from the discipline).
    while (bytes_ + entry.bytes > budget_ && EvictOne()) {
    }
    if (exec_ != nullptr && !exec_->TryCharge(entry.bytes)) {
      // The context tripped kMemoryExceeded; abandon the load — nothing
      // resident, nothing charged — and unwind cooperatively.
      *status = exec_->ToStatus();
      return nullptr;
    }
    bytes_ += entry.bytes;
    if (bytes_ > stats_.peak_bytes) stats_.peak_bytes = bytes_;
    lru_.push_front(std::move(entry));
    index_[key] = lru_.begin();
    return &lru_.front().value;
  }

  /// Marks \p key in use: it will not be evicted until a matching Unpin.
  /// Counted — independent pinners compose. The key need not be resident
  /// yet (the scheduler pins both task shards before loading either).
  void Pin(uint64_t key) STJ_EXCLUDES(mutex_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++pins_[key];
  }

  /// Reverses one Pin. Unpinning a never-pinned key is a caller bug
  /// (STJ_CHECK): a miscounted pin table is exactly the kind of quiet
  /// protocol rot the model checker exists to keep out.
  void Unpin(uint64_t key) STJ_EXCLUDES(mutex_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = pins_.find(key);
    STJ_CHECK_MSG(it != pins_.end() && it->second > 0,
                  "Unpin without a matching Pin");
    if (--it->second == 0) pins_.erase(it);
  }

  /// RAII pin over one key.
  class PinGuard {
   public:
    PinGuard(PinnedByteLruCache* cache, uint64_t key)
        : cache_(cache), key_(key) {
      cache_->Pin(key_);
    }
    ~PinGuard() { cache_->Unpin(key_); }
    PinGuard(const PinGuard&) = delete;
    PinGuard& operator=(const PinGuard&) = delete;

   private:
    PinnedByteLruCache* cache_;
    uint64_t key_;
  };

  bool Contains(uint64_t key) const STJ_EXCLUDES(mutex_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return index_.count(key) != 0;
  }

  bool IsPinned(uint64_t key) const STJ_EXCLUDES(mutex_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return pins_.count(key) != 0;
  }

  size_t bytes() const STJ_EXCLUDES(mutex_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
  }

  size_t size() const STJ_EXCLUDES(mutex_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return index_.size();
  }

  size_t budget_bytes() const { return budget_; }

  PinnedCacheStats Stats() const STJ_EXCLUDES(mutex_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  /// Aborts (STJ_CHECK) on structural inconsistency: the index and the LRU
  /// list must describe the same entry set, the byte accounting must equal
  /// the sum over resident entries, and every pin count must be positive.
  /// O(resident + pins); the model checker calls it after every step.
  void ValidateInvariants() const STJ_EXCLUDES(mutex_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    size_t sum = 0;
    size_t count = 0;
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      auto idx = index_.find(it->key);
      STJ_CHECK_MSG(idx != index_.end() && idx->second == it,
                    "LRU entry missing from or misbound in the index");
      sum += it->bytes;
      ++count;
    }
    STJ_CHECK_MSG(count == index_.size(),
                  "index holds keys absent from the LRU list");
    STJ_CHECK_MSG(sum == bytes_, "resident byte accounting out of sync");
    for (const auto& pin : pins_) {
      // Zero counts are erased on the way down; one surviving means Unpin
      // bookkeeping rotted.
      STJ_CHECK_MSG(pin.second > 0, "pin table holds a zero count");
    }
  }

 private:
  struct Entry {
    uint64_t key = 0;
    size_t bytes = 0;
    Value value;
  };

  /// Drops the least-recently-used unpinned entry, releasing its charge;
  /// false when every resident entry is pinned (or the cache is empty).
  bool EvictOne() STJ_REQUIRES(mutex_) {
    if (lru_.empty()) return false;
    for (auto it = std::prev(lru_.end());; --it) {
#ifdef STJ_MODEL_CACHE_CORRUPT
      // Tripwire build (tests/model, DESIGN.md §16): deliberately ignore
      // the pin table. The model checker must fail its "pinned entries are
      // never evicted" invariant on this build.
      const bool pinned = false;
#else
      const bool pinned = pins_.count(it->key) != 0;
#endif
      if (!pinned) {
        bytes_ -= it->bytes;
        if (exec_ != nullptr) exec_->Release(it->bytes);
        index_.erase(it->key);
        lru_.erase(it);
        ++stats_.evictions;
        return true;
      }
      if (it == lru_.begin()) return false;
    }
  }

  const size_t budget_;
  ExecContext* const exec_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_ STJ_GUARDED_BY(mutex_);  ///< Front = most recent.
  std::unordered_map<uint64_t, typename std::list<Entry>::iterator> index_
      STJ_GUARDED_BY(mutex_);
  /// The pin table: key -> live pin count (erased at zero, so presence
  /// means pinned).
  std::unordered_map<uint64_t, uint32_t> pins_ STJ_GUARDED_BY(mutex_);
  size_t bytes_ STJ_GUARDED_BY(mutex_) = 0;
  PinnedCacheStats stats_ STJ_GUARDED_BY(mutex_);
};

}  // namespace stj
