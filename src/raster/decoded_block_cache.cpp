#include "src/raster/decoded_block_cache.h"

#include <utility>

namespace stj {

namespace {

/// Fixed accounting overhead per entry: the list node bookkeeping and the
/// hash-map slot, estimated once — the budget is a working-set bound, not an
/// allocator audit.
constexpr size_t kEntryOverheadBytes = 96;

size_t EntryBytes(const std::vector<CellInterval>& c,
                  const std::vector<CellInterval>& p) {
  return kEntryOverheadBytes +
         (c.capacity() + p.capacity()) * sizeof(CellInterval);
}

}  // namespace

DecodedAprilCache::FetchOutcome DecodedAprilCache::Fetch(
    const CompressedAprilStore& store, uint32_t idx, AprilView* out) {
  // Missing or flagged-corrupt records are decided from the store's own
  // metadata — no cache traffic, exactly like the flat storages.
  if (idx >= store.Count() || !store.Usable(idx)) return FetchOutcome::kAbsent;

  const auto it = entries_.find(idx);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // touch: becomes MRU
    const Entry& entry = *it->second;
    if (entry.bad) {
      ++stats_.corrupt;
      return FetchOutcome::kCorrupt;
    }
    ++stats_.hits;
    *out = AprilView(
        IntervalView(entry.conservative.data(), entry.conservative.size()),
        IntervalView(entry.progressive.data(), entry.progressive.size()));
    return FetchOutcome::kHit;
  }

  ++stats_.misses;
  Entry entry;
  entry.key = idx;
  entry.bad = !store.DecodeRecord(idx, &entry.conservative, &entry.progressive);
  if (entry.bad) {
    // Negative entry: keep only the marker, not the partial decode.
    entry.conservative.clear();
    entry.conservative.shrink_to_fit();
    entry.progressive.clear();
    entry.progressive.shrink_to_fit();
  }
  entry.bytes = EntryBytes(entry.conservative, entry.progressive);

  lru_.push_front(std::move(entry));
  entries_[idx] = lru_.begin();
  bytes_ += lru_.front().bytes;

  // Evict from the LRU tail until the budget holds — but never the entry
  // just inserted, so one record always stays warm.
  while (bytes_ > budget_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    entries_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }

  const Entry& front = lru_.front();
  if (front.bad) {
    ++stats_.corrupt;
    return FetchOutcome::kCorrupt;
  }
  *out = AprilView(
      IntervalView(front.conservative.data(), front.conservative.size()),
      IntervalView(front.progressive.data(), front.progressive.size()));
  return FetchOutcome::kMiss;
}

}  // namespace stj
