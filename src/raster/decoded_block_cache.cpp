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

  if (const Record* hit = lru_.Find(idx)) {
    return Serve(*hit, FetchOutcome::kHit, out);
  }

  ++stats_.misses;
  Record record;
  if (!store.DecodeRecord(idx, &record.conservative, &record.progressive)) {
    // Negative entry: keep only the marker, not the partial decode.
    record = Record{};
    record.bad = true;
  }
  const size_t bytes = EntryBytes(record.conservative, record.progressive);
  const Record* inserted = lru_.Insert(idx, std::move(record), bytes);
  stats_.evictions = lru_.evictions();
  return Serve(*inserted, FetchOutcome::kMiss, out);
}

DecodedAprilCache::FetchOutcome DecodedAprilCache::Serve(const Record& record,
                                                         FetchOutcome outcome,
                                                         AprilView* out) {
  if (record.bad) {
    ++stats_.corrupt;
    return FetchOutcome::kCorrupt;
  }
  if (outcome == FetchOutcome::kHit) ++stats_.hits;
  *out = AprilView(
      IntervalView(record.conservative.data(), record.conservative.size()),
      IntervalView(record.progressive.data(), record.progressive.size()));
  return outcome;
}

}  // namespace stj
