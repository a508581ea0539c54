#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "src/interval/interval_list.h"
#include "src/raster/april.h"
#include "src/raster/april_compressed.h"
#include "src/util/thread_annotations.h"

namespace stj {

/// Default per-worker decoded-record budget. A decoded tessellation record
/// is a few KB of CellIntervals, so this keeps the working set of a
/// Hilbert-ordered block wave (the records of a few consecutive blocks)
/// resident without competing with the PreparedCache for memory.
inline constexpr size_t kDefaultDecodedCacheBytes = size_t{8} << 20;

/// Telemetry of one DecodedAprilCache (merged across workers into
/// PipelineStats::decoded_* like the prepared_* counters).
struct DecodedCacheStats {
  uint64_t hits = 0;       ///< Record served from the cache.
  uint64_t misses = 0;     ///< Record decoded and inserted.
  uint64_t evictions = 0;  ///< Entries dropped to respect the budget.
  /// Lookups that hit a record whose blocked payload failed to decode (the
  /// caller falls back to MBR-narrowed refinement, and the failure itself is
  /// cached so a hot corrupt record is not re-decoded per pair).
  uint64_t corrupt = 0;
};

/// Bounded per-worker LRU of *decoded* CompressedAprilStore records, keyed
/// by object index: the only way compressed records reach the filters.
///
/// The blocked codec is a storage encoding; the intermediate filters run
/// the flat interval merge-joins only. The Hilbert-ordered join schedule
/// makes per-pair record reuse systematic — a wave of consecutive blocks
/// touches the same objects across many pairs — so decoding a hot record
/// once to flat canonical form serves every subsequent pair it takes part
/// in. The cache is a pure performance layer: its budget changes no
/// decision.
///
/// Corruption isolation: a record whose payload fails DecodeCompressed
/// (tampered bytes behind a valid usable flag) is cached as a negative
/// entry; every lookup reports it as unavailable — the same degraded-mode
/// signal as a usable=false placeholder — without re-attempting the decode.
/// The malformed record never feeds a filter and never aborts the join.
///
/// Eviction is by byte budget over the decoded interval payloads; the entry
/// just inserted is always admitted (a budget smaller than one record still
/// keeps exactly one record warm, preserving consecutive-pair reuse).
///
/// Not thread-safe by design: one instance per Pipeline side, one Pipeline
/// per worker (the same confinement contract as PreparedCache).
class DecodedAprilCache {
 public:
  STJ_THREAD_CONFINED(
      "one instance per Pipeline side, one Pipeline per worker (the same "
      "confinement contract as PreparedCache); views it returns stay "
      "worker-local");

  /// How one lookup was resolved. kHit/kMiss fill *out; kCorrupt and
  /// kAbsent are the degraded-mode signals (no views).
  enum class FetchOutcome : uint8_t {
    kHit,      ///< Served from the cache.
    kMiss,     ///< Decoded and inserted.
    kCorrupt,  ///< Payload fails to decode (cached negative entry).
    kAbsent,   ///< No such record, or flagged unusable by the store.
  };

  explicit DecodedAprilCache(size_t budget_bytes) : budget_(budget_bytes) {}

  /// Serves the decoded flat views of record \p idx from \p store into
  /// *out, decoding on a miss. kCorrupt/kAbsent mean the record cannot feed
  /// the filters — the same degraded-mode signal as a usable=false
  /// placeholder. The views point into cache-owned storage and stay valid
  /// until the entry is evicted, i.e. at most until the next Fetch on this
  /// cache.
  FetchOutcome Fetch(const CompressedAprilStore& store, uint32_t idx,
                     AprilView* out);

  const DecodedCacheStats& Stats() const { return stats_; }
  size_t budget_bytes() const { return budget_; }
  size_t bytes() const { return bytes_; }
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    uint32_t key = 0;
    bool bad = false;  ///< Negative entry: payload failed to decode.
    size_t bytes = 0;
    std::vector<CellInterval> conservative;
    std::vector<CellInterval> progressive;
  };

  /// MRU at the front; the map points into the list for O(1) touch.
  std::list<Entry> lru_;
  std::unordered_map<uint32_t, std::list<Entry>::iterator> entries_;
  size_t budget_;
  size_t bytes_ = 0;
  DecodedCacheStats stats_;
};

}  // namespace stj
