#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/interval/interval_list.h"
#include "src/raster/april.h"

namespace stj {

/// Arena-backed storage for a dataset's APRIL approximations.
///
/// All interval data lives in one flat CellInterval arena in CSR layout;
/// per-record offset tables mark where each record's Conservative and
/// Progressive lists begin. Record i occupies:
///
///   C_i = arena[rec_begin[i] .. p_begin[i])
///   P_i = arena[p_begin[i]   .. rec_begin[i+1])
///
/// Compared with a vector<AprilApproximation> (two heap vectors per object),
/// the arena costs three allocations total and keeps a whole dataset's
/// approximations contiguous for scan-friendly filtering. It is an
/// in-memory form only: no file loads into it (a prepared dataset is a
/// shard set, src/raster/shard_io.h, read through CompressedAprilStore).
/// Records are read out as lightweight non-owning IntervalView / AprilView
/// values — the same types the interval algebra and the intermediate
/// filters consume — so the topology layer is agnostic to which storage a
/// dataset uses.
///
/// A record can be appended as usable=false (placeholder keeping later
/// records index-aligned), and Usable(i) must gate any use of its views.
class AprilStore {
 public:
  AprilStore() = default;

  size_t Count() const { return p_begin_.size(); }
  bool Empty() const { return p_begin_.empty(); }

  /// False when the record is a corruption placeholder; its views are then
  /// empty and must not feed the filters (the pipeline refines instead).
  bool Usable(size_t i) const { return usable_[i] != 0; }

  IntervalView Conservative(size_t i) const {
    return IntervalView(arena_.data() + rec_begin_[i],
                        static_cast<size_t>(p_begin_[i] - rec_begin_[i]));
  }

  IntervalView Progressive(size_t i) const {
    return IntervalView(arena_.data() + p_begin_[i],
                        static_cast<size_t>(rec_begin_[i + 1] - p_begin_[i]));
  }

  AprilView View(size_t i) const {
    return AprilView(Conservative(i), Progressive(i));
  }

  /// Appends one record; the views' interval data is copied into the arena.
  void AppendRecord(IntervalView conservative, IntervalView progressive,
                    bool usable = true);

  /// Appends a usable=false placeholder with empty lists (degraded loads).
  void AppendCorruptPlaceholder() {
    AppendRecord(IntervalView(), IntervalView(), /*usable=*/false);
  }

  /// Pre-sizes the arena and offset tables (loading knows both counts).
  void Reserve(size_t records, size_t intervals);

  void Clear();

  /// Copies a legacy vector into arena form (preserving usable flags).
  static AprilStore FromApproximations(
      const std::vector<AprilApproximation>& approximations);

  /// Aborts (STJ_CHECK) if the CSR structure is inconsistent: offset-table
  /// sizes must agree with Count(), rec_begin/p_begin must be monotone and
  /// bracket each record inside the arena, rec_begin.back() must equal the
  /// arena size, every record's C and P lists must be canonical with P ⊆ C,
  /// and corruption placeholders must be empty. Always compiled (tests call
  /// it directly); automatic invocation sits behind STJ_IF_INVARIANTS in the
  /// bulk construction paths. O(arena size).
  void ValidateInvariants() const;

  /// Total in-memory footprint: arena + offset tables + flags. The interval
  /// payload alone (comparable to AprilApproximation::ByteSize sums) is
  /// IntervalByteSize().
  size_t ByteSize() const;
  size_t IntervalByteSize() const { return arena_.size() * sizeof(CellInterval); }

  /// Structural equality over arena bytes, offsets, and usable flags. Two
  /// stores built from the same records in the same order compare equal —
  /// the determinism check of the parallel builder relies on this.
  friend bool operator==(const AprilStore& a, const AprilStore& b) {
    return a.arena_ == b.arena_ && a.rec_begin_ == b.rec_begin_ &&
           a.p_begin_ == b.p_begin_ && a.usable_ == b.usable_;
  }

 private:
  std::vector<CellInterval> arena_;
  /// rec_begin_[i] = arena index of record i's C data; rec_begin_.back() =
  /// arena_.size() always, so rec_begin_ has Count()+1 entries.
  std::vector<uint64_t> rec_begin_{0};
  std::vector<uint64_t> p_begin_;  ///< Arena index of record i's P data.
  std::vector<uint8_t> usable_;
};

}  // namespace stj
