#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/geometry/prepared_polygon.h"
#include "src/util/thread_annotations.h"
#include "src/util/worker_lru.h"

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
/// PreparedPolygon::kIndexAfterScans builds the index instead — in
/// whichever pair that happens, even midway — and the Pipeline inserts the
/// indexed object here. The counts take one byte per key up to the largest
/// key seen (the side's object count) and are never reset, so an evicted
/// object is indexed again at its first scan after its next miss.
///
/// The indexed objects live in a WorkerLru under a byte budget, charged
/// PreparedPolygon::EstimateBytes each; the newest entry is always kept.
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
  explicit PreparedCache(size_t budget_bytes) : lru_(budget_bytes) {}

  size_t budget_bytes() const { return lru_.budget_bytes(); }
  size_t bytes() const { return lru_.bytes(); }
  size_t size() const { return lru_.size(); }

  /// The cached entry for \p key, or nullptr. A hit becomes most-recent.
  /// The returned pointer stays valid until the entry is evicted (i.e. at
  /// most until the next Insert).
  const PreparedPolygon* Find(uint32_t key) { return lru_.Find(key); }

  /// The edge passes \p key's object has had while bare in this worker
  /// (0 if none), at most PreparedPolygon::kIndexAfterScans.
  uint32_t Scans(uint32_t key) const {
    return key < scans_.size() ? scans_[key] : 0;
  }

  /// Records \p key's pass count, capped at
  /// PreparedPolygon::kIndexAfterScans.
  void SetScans(uint32_t key, uint32_t scans) {
    static_assert(PreparedPolygon::kIndexAfterScans <= UINT8_MAX,
                  "a pass count takes one byte");
    if (scans == Scans(key)) return;
    if (key >= scans_.size()) scans_.resize(size_t{key} + 1, 0);
    scans_[key] = static_cast<uint8_t>(
        std::min(PreparedPolygon::kIndexAfterScans, scans));
  }

  /// Inserts an entry (the key must not already be present) and returns it,
  /// evicting least-recently-used entries until the budget is respected
  /// (never the entry just inserted).
  const PreparedPolygon* Insert(uint32_t key, PreparedPolygon prepared,
                                size_t bytes) {
    return lru_.Insert(key, std::move(prepared), bytes);
  }

  /// WorkerLru::ValidateInvariants over the cached entries.
  void ValidateInvariants() const { lru_.ValidateInvariants(); }

 private:
  WorkerLru<PreparedPolygon> lru_;
  std::vector<uint8_t> scans_;  // key -> edge passes made bare, capped
};

}  // namespace stj
