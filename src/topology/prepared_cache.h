#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/geometry/prepared_polygon.h"
#include "src/util/thread_annotations.h"

namespace stj {

/// Bounded per-worker cache of indexed PreparedPolygons keyed by object
/// index.
///
/// Admission: until its index is built, an object is related bare, and
/// each bare relate passes over its edges a few times (one window scan, one
/// crossing count per point located against it). The cache keeps each
/// object's count of those passes (Scans/SetScans); the Pipeline seeds a
/// missed object's PreparedPolygon with it and stores it back after the
/// pair. The pass that brings the count to
/// PreparedPolygon::kIndexAfterScans, about what building the index costs,
/// builds it instead — in whichever pair that happens, even midway — and
/// the Pipeline inserts the indexed object here. So an object is indexed
/// once this worker has spent an index's worth of work scanning it (the
/// rent-or-buy rule). The counts take one byte per key up to the largest
/// key seen (the side's object count) and are never reset, so an evicted
/// object is indexed again at its first scan after its next miss.
///
/// Layout: an open-addressed (linear-probing, backward-shift deletion) hash
/// table maps keys to handles into a stable entry pool; the live entries are
/// threaded onto an intrusive LRU list. Eviction is by memory budget, using
/// PreparedPolygon::EstimateBytes accounting. The entry being inserted is
/// always kept — older entries are evicted to make room, but a budget
/// smaller than a single object still keeps exactly one entry warm, which
/// preserves the consecutive-pair reuse the Hilbert-ordered refinement
/// schedule produces.
///
/// Not thread-safe: each Pipeline (one per worker) owns its own caches, so
/// the cache needs no synchronisation and hit rates are per-worker exact.
class PreparedCache {
 public:
  STJ_THREAD_CONFINED(
      "one instance per Pipeline, one Pipeline per worker; never shared, "
      "so hit rates stay per-worker exact and no lock is needed");

  /// \p budget_bytes bounds the summed byte estimates of cached entries
  /// (softly: the newest entry is kept even when it alone exceeds it).
  explicit PreparedCache(size_t budget_bytes) : budget_(budget_bytes) {}

  size_t budget_bytes() const { return budget_; }
  size_t bytes() const { return bytes_; }
  size_t size() const { return size_; }

  /// The cached entry for \p key, or nullptr. A hit becomes most-recent.
  /// The returned pointer stays valid until the entry is evicted (i.e. at
  /// most until the next Insert).
  const PreparedPolygon* Find(uint32_t key);

  /// The edge passes \p key's object has had while bare in this worker
  /// (0 if none), at most PreparedPolygon::kIndexAfterScans.
  uint32_t Scans(uint32_t key) const {
    return key < scans_.size() ? scans_[key] : 0;
  }

  /// Records \p key's pass count, capped at
  /// PreparedPolygon::kIndexAfterScans.
  void SetScans(uint32_t key, uint32_t scans);

  /// Inserts an entry (the key must not already be present) and returns it,
  /// evicting least-recently-used entries until the budget is respected
  /// (never the entry just inserted).
  const PreparedPolygon* Insert(uint32_t key, PreparedPolygon prepared,
                                size_t bytes);

  /// Aborts (STJ_CHECK) on structural inconsistency: the LRU list must be a
  /// well-formed doubly-linked chain over exactly the live entries, the
  /// byte/count accounting must equal the sum over live entries, every table
  /// slot must point at a live pool entry that probes back to that slot, and
  /// live + free handles must partition the pool. Always compiled (the
  /// stress test drives it directly through eviction churn); automatic
  /// invocation is gated behind STJ_IF_INVARIANTS in Insert. O(pool + table).
  void ValidateInvariants() const;

 private:
  struct Entry {
    uint32_t key = 0;
    uint32_t lru_prev = kNil;
    uint32_t lru_next = kNil;
    size_t bytes = 0;
    PreparedPolygon prepared;
  };

  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  size_t HomeSlot(uint32_t key) const {
    // Knuth multiplicative hash; the table size is a power of two.
    return (static_cast<size_t>(key) * 2654435761u) & (table_.size() - 1);
  }

  /// Probes for \p key; returns the table slot holding it, or the first
  /// empty slot of its probe sequence when absent.
  size_t FindSlot(uint32_t key) const;

  void Unlink(uint32_t handle);
  void PushFront(uint32_t handle);
  void EvictTail();
  /// Backward-shift deletion: empties \p slot and re-packs the probe
  /// sequences that ran through it.
  void EraseSlot(size_t slot);
  void GrowTable();

  size_t budget_;
  size_t bytes_ = 0;
  size_t size_ = 0;
  std::vector<uint32_t> table_;  // slot -> pool handle, kNil when empty
  std::vector<std::unique_ptr<Entry>> pool_;
  std::vector<uint32_t> free_;  // recycled pool handles
  uint32_t lru_head_ = kNil;    // most recently used
  uint32_t lru_tail_ = kNil;    // least recently used
  std::vector<uint8_t> scans_;  // key -> edge passes made bare, capped
};

}  // namespace stj
