#include "src/topology/prepared_cache.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace stj {

namespace {
/// Initial table capacity (power of two) and the load factor that triggers
/// growth. The budget bounds the entry count, so the table stops growing
/// once it can hold the working set at this load.
constexpr size_t kInitialSlots = 64;
constexpr size_t kLoadNumerator = 7;    // grow above 7/10 load
constexpr size_t kLoadDenominator = 10;
}  // namespace

size_t PreparedCache::FindSlot(uint32_t key) const {
  const size_t mask = table_.size() - 1;
  size_t slot = HomeSlot(key);
  while (table_[slot] != kNil && pool_[table_[slot]]->key != key) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

const PreparedPolygon* PreparedCache::Find(uint32_t key) {
  if (size_ == 0) return nullptr;
  const size_t slot = FindSlot(key);
  if (table_[slot] == kNil) return nullptr;
  const uint32_t handle = table_[slot];
  if (handle != lru_head_) {
    Unlink(handle);
    PushFront(handle);
  }
  return &pool_[handle]->prepared;
}

void PreparedCache::SetScans(uint32_t key, uint32_t scans) {
  static_assert(PreparedPolygon::kIndexAfterScans <= UINT8_MAX,
                "a pass count takes one byte");
  if (scans == Scans(key)) return;
  if (key >= scans_.size()) scans_.resize(size_t{key} + 1, 0);
  scans_[key] = static_cast<uint8_t>(
      std::min(PreparedPolygon::kIndexAfterScans, scans));
}

const PreparedPolygon* PreparedCache::Insert(uint32_t key,
                                             PreparedPolygon prepared,
                                             size_t bytes) {
  if (table_.empty()) table_.assign(kInitialSlots, kNil);
  if ((size_ + 1) * kLoadDenominator > table_.size() * kLoadNumerator) {
    GrowTable();
  }

  uint32_t handle;
  if (!free_.empty()) {
    handle = free_.back();
    free_.pop_back();
    pool_[handle] = std::make_unique<Entry>();
  } else {
    handle = static_cast<uint32_t>(pool_.size());
    pool_.push_back(std::make_unique<Entry>());
  }
  Entry& entry = *pool_[handle];
  entry.key = key;
  entry.bytes = bytes;
  entry.prepared = std::move(prepared);

  const size_t slot = FindSlot(key);
  table_[slot] = handle;
  PushFront(handle);
  bytes_ += bytes;
  ++size_;

  // Evict from the cold end until the budget holds, but always keep the
  // entry just inserted (it is the LRU head, never the tail while size > 1).
  while (bytes_ > budget_ && size_ > 1) EvictTail();
  STJ_IF_INVARIANTS(ValidateInvariants());
  return &pool_[handle]->prepared;
}

void PreparedCache::ValidateInvariants() const {
  // Walk the LRU chain head-to-tail, checking link symmetry and summing the
  // accounting as we go.
  size_t live = 0;
  size_t bytes = 0;
  uint32_t prev = kNil;
  for (uint32_t handle = lru_head_; handle != kNil;) {
    STJ_CHECK_MSG(handle < pool_.size() && pool_[handle] != nullptr,
                  "LRU link must reference a live pool entry");
    const Entry& entry = *pool_[handle];
    STJ_CHECK_MSG(entry.lru_prev == prev, "LRU links must be symmetric");
    ++live;
    STJ_CHECK_MSG(live <= size_, "LRU chain longer than size_ (cycle?)");
    bytes += entry.bytes;
    prev = handle;
    handle = entry.lru_next;
  }
  STJ_CHECK_MSG(lru_tail_ == prev, "LRU tail must end the chain");
  STJ_CHECK_MSG(live == size_, "LRU chain must cover every live entry");
  STJ_CHECK_MSG(bytes == bytes_, "byte accounting must match live entries");

  // Table consistency: every non-empty slot resolves its entry's key back to
  // itself (probe sequences are unbroken), and slots cover the live entries
  // exactly once.
  size_t occupied = 0;
  for (size_t slot = 0; slot < table_.size(); ++slot) {
    const uint32_t handle = table_[slot];
    if (handle == kNil) continue;
    ++occupied;
    STJ_CHECK_MSG(handle < pool_.size() && pool_[handle] != nullptr,
                  "table slot must reference a live pool entry");
    STJ_CHECK_MSG(FindSlot(pool_[handle]->key) == slot,
                  "entry must be findable at its slot (broken probe chain)");
  }
  STJ_CHECK_MSG(occupied == size_, "table occupancy must equal size_");

  // Live and freed handles partition the pool.
  size_t freed = 0;
  for (const std::unique_ptr<Entry>& entry : pool_) {
    if (entry == nullptr) ++freed;
  }
  STJ_CHECK_MSG(freed == free_.size(), "free list must track freed entries");
  STJ_CHECK_MSG(live + freed == pool_.size(),
                "live and freed handles must partition the pool");
}

void PreparedCache::Unlink(uint32_t handle) {
  Entry& entry = *pool_[handle];
  if (entry.lru_prev != kNil) {
    pool_[entry.lru_prev]->lru_next = entry.lru_next;
  } else {
    lru_head_ = entry.lru_next;
  }
  if (entry.lru_next != kNil) {
    pool_[entry.lru_next]->lru_prev = entry.lru_prev;
  } else {
    lru_tail_ = entry.lru_prev;
  }
  entry.lru_prev = kNil;
  entry.lru_next = kNil;
}

void PreparedCache::PushFront(uint32_t handle) {
  Entry& entry = *pool_[handle];
  entry.lru_prev = kNil;
  entry.lru_next = lru_head_;
  if (lru_head_ != kNil) pool_[lru_head_]->lru_prev = handle;
  lru_head_ = handle;
  if (lru_tail_ == kNil) lru_tail_ = handle;
}

void PreparedCache::EvictTail() {
  const uint32_t handle = lru_tail_;
  const uint32_t key = pool_[handle]->key;
  Unlink(handle);
  EraseSlot(FindSlot(key));
  bytes_ -= pool_[handle]->bytes;
  --size_;
  pool_[handle].reset();  // frees the PreparedPolygon's indexes now
  free_.push_back(handle);
}

void PreparedCache::EraseSlot(size_t slot) {
  const size_t mask = table_.size() - 1;
  size_t hole = slot;
  size_t probe = slot;
  for (;;) {
    table_[hole] = kNil;
    for (;;) {
      probe = (probe + 1) & mask;
      if (table_[probe] == kNil) return;
      const size_t home = HomeSlot(pool_[table_[probe]]->key);
      // Move the entry at `probe` into the hole iff its home slot is not
      // cyclically within (hole, probe] — i.e. the hole interrupted its
      // probe sequence.
      const bool movable = (probe > hole)
                               ? (home <= hole || home > probe)
                               : (home <= hole && home > probe);
      if (movable) {
        table_[hole] = table_[probe];
        hole = probe;
        break;
      }
    }
  }
}

void PreparedCache::GrowTable() {
  std::vector<uint32_t> old = std::move(table_);
  table_.assign(old.size() * 2, kNil);
  const size_t mask = table_.size() - 1;
  for (const uint32_t handle : old) {
    if (handle == kNil) continue;
    size_t slot = HomeSlot(pool_[handle]->key);
    while (table_[slot] != kNil) slot = (slot + 1) & mask;
    table_[slot] = handle;
  }
}

}  // namespace stj
