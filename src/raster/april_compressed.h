#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/interval/interval_codec.h"
#include "src/interval/interval_list.h"
#include "src/raster/april_store.h"

namespace stj {

/// The flat arrays a CompressedAprilStore reads through. In the owning
/// mode they point into the store's own vectors; in the mapped mode
/// (FromSpans) they point into externally owned memory — a shard file
/// mapping (shard_io.h) — and the store serves views zero-copy off it.
///
/// Array lengths follow the CSR convention: hdr_begin/byte_begin have
/// count+1 entries with hdr_begin[count] == total headers and
/// byte_begin[count] == total payload bytes; every other array has exactly
/// count entries.
struct CompressedStoreSpans {
  const IntervalBlockHeader* headers = nullptr;
  const uint8_t* bytes = nullptr;
  const uint64_t* hdr_begin = nullptr;     ///< count+1 entries.
  const uint64_t* p_hdr_begin = nullptr;   ///< count entries.
  const uint64_t* byte_begin = nullptr;    ///< count+1 entries.
  const uint64_t* p_byte_begin = nullptr;  ///< count entries.
  const uint64_t* c_intervals = nullptr;   ///< count entries.
  const uint64_t* p_intervals = nullptr;   ///< count entries.
  const uint8_t* usable = nullptr;         ///< count entries.
  /// count entries: each record's RecordChecksum as its writer stored it.
  /// Only a mapped store has them (null in the owning mode); DecodeRecord
  /// then checks each record against its sum.
  const uint64_t* record_fnv = nullptr;
  uint64_t count = 0;                      ///< Record count.
};

/// Arena-backed storage for a dataset's APRIL approximations in the blocked
/// codec (interval_codec.h) — the form the shard files persist.
///
/// Mirrors AprilStore's CSR design with two arenas instead of one: all block
/// headers live in one flat array and all payload bytes in another;
/// per-record offset tables bracket each record's Conservative and
/// Progressive spans in both. Record i occupies:
///
///   C_i headers = headers[hdr_begin[i] .. p_hdr_begin[i])
///   P_i headers = headers[p_hdr_begin[i] .. hdr_begin[i+1])
///
/// and the same shape over the byte arena. Block byte offsets are relative
/// to their list's byte span, so views hand the codec self-contained spans.
///
/// Storage comes in two modes behind one read interface: the owning mode
/// (default; mutators append into the store's own vectors) and the mapped
/// mode (FromSpans; the arrays live in externally owned memory, typically
/// an mmap-ed shard segment table, and must outlive the store). Every const
/// accessor reads through CompressedStoreSpans, so the filter pipeline is
/// oblivious to where the bytes live. Mutating a mapped store is a
/// contract violation (STJ_CHECK).
///
/// Corruption isolation matches AprilStore: records can be appended as
/// usable=false placeholders and Usable(i) gates every view. A mapped
/// store also carries one checksum per record (CompressedStoreSpans::
/// record_fnv): a record that fails it does not decode, so its pairs refine.
class CompressedAprilStore {
 public:
  CompressedAprilStore() { RefreshSpans(); }

  // The spans point into the vectors (owning mode), so copies and moves
  // must re-aim them at the destination's storage.
  CompressedAprilStore(const CompressedAprilStore& other);
  CompressedAprilStore& operator=(const CompressedAprilStore& other);
  CompressedAprilStore(CompressedAprilStore&& other) noexcept;
  CompressedAprilStore& operator=(CompressedAprilStore&& other) noexcept;

  /// Wraps externally owned arrays (see CompressedStoreSpans) without
  /// copying: the returned store serves views straight off \p spans, which
  /// must stay valid and unchanged for the store's lifetime. The caller
  /// vouches for CSR consistency (ValidateInvariants audits it on demand);
  /// the shard loader (shard_io.h) is the intended caller.
  static CompressedAprilStore FromSpans(const CompressedStoreSpans& spans);

  /// True for stores created by FromSpans (mutators are forbidden).
  bool IsMapped() const { return external_; }

  /// The raw arrays this store reads through — the shard writer serialises
  /// them, and tests assert the mapped mode is genuinely zero-copy.
  const CompressedStoreSpans& Spans() const { return span_; }

  size_t Count() const { return static_cast<size_t>(span_.count); }
  bool Empty() const { return span_.count == 0; }

  /// False when the record is a corruption placeholder; its views are then
  /// empty and must not feed the filters.
  bool Usable(size_t i) const { return span_.usable[i] != 0; }

  CompressedIntervalView Conservative(size_t i) const {
    return CompressedIntervalView(
        span_.headers + span_.hdr_begin[i],
        static_cast<size_t>(span_.p_hdr_begin[i] - span_.hdr_begin[i]),
        span_.bytes + span_.byte_begin[i],
        static_cast<size_t>(span_.p_byte_begin[i] - span_.byte_begin[i]),
        span_.c_intervals[i]);
  }

  CompressedIntervalView Progressive(size_t i) const {
    return CompressedIntervalView(
        span_.headers + span_.p_hdr_begin[i],
        static_cast<size_t>(span_.hdr_begin[i + 1] - span_.p_hdr_begin[i]),
        span_.bytes + span_.p_byte_begin[i],
        static_cast<size_t>(span_.byte_begin[i + 1] - span_.p_byte_begin[i]),
        span_.p_intervals[i]);
  }

  /// Appends one record; header and payload data is copied into the arenas.
  void AppendRecord(const CompressedIntervalList& conservative,
                    const CompressedIntervalList& progressive,
                    bool usable = true);

  /// Encodes two flat canonical lists and appends them as one record.
  void AppendEncoded(IntervalView conservative, IntervalView progressive,
                     bool usable = true);

  /// Appends record \p i of \p from verbatim — header and payload spans are
  /// copied, never re-encoded, so the appended record is byte-identical to
  /// the source (the shard writer slices per-tile stores out of a dataset
  /// store with this).
  void AppendRecordFrom(const CompressedAprilStore& from, size_t i);

  /// Appends a usable=false placeholder with empty lists (degraded loads).
  void AppendCorruptPlaceholder() {
    AppendRecord(CompressedIntervalList(), CompressedIntervalList(),
                 /*usable=*/false);
  }

  void Reserve(size_t records, size_t blocks, size_t payload_bytes);

  void Clear();

  /// Encodes every record of a flat store (usable flags preserved; corrupt
  /// placeholders stay placeholders).
  static CompressedAprilStore FromStore(const AprilStore& store);

  /// Decodes record i back to flat canonical form. Returns false on any
  /// malformed block (cannot happen for records built by AppendEncoded) and,
  /// on a store with record sums, when record i does not match its sum.
  bool DecodeRecord(size_t i, std::vector<CellInterval>* conservative,
                    std::vector<CellInterval>* progressive) const;

  /// FNV-1a64 (src/util/fnv1a.h) over record i's usable byte, its C and P
  /// interval counts, its C and P header runs and its C and P payload
  /// bytes, in that order. Header byte offsets are relative to their list,
  /// so the sum does not depend on where the record sits in its arena: a
  /// record copied into several shard tiles has one sum.
  uint64_t RecordChecksum(size_t i) const;

  /// Full audit of record i for the aprilcheck codec validation: deep codec
  /// validation of both lists (ValidateCompressed), P ⊆ C on the decoded
  /// lists, and re-encode round-trip byte equality (the encoder is
  /// deterministic, so any stored byte the re-encoding does not reproduce is
  /// codec corruption even when the frame checksum matches). Returns an
  /// explanation or "".
  std::string DeepValidateRecord(size_t i) const;

  /// Aborts (STJ_CHECK) if the CSR structure is inconsistent or any record
  /// fails deep codec validation / P ⊆ C / placeholder-emptiness. Always
  /// compiled; automatic invocation sits behind STJ_IF_INVARIANTS in bulk
  /// construction paths. O(total payload).
  void ValidateInvariants() const;

  /// Total in-memory footprint (arenas + offset tables + flags); the codec
  /// payload alone is PayloadByteSize() — compare with
  /// AprilStore::IntervalByteSize() for the compression ratio. For mapped
  /// stores this is the footprint of the referenced arrays, not of the
  /// store object (which owns nothing).
  size_t ByteSize() const;
  size_t PayloadByteSize() const {
    return static_cast<size_t>(span_.hdr_begin[span_.count]) *
               sizeof(IntervalBlockHeader) +
           static_cast<size_t>(span_.byte_begin[span_.count]);
  }

  /// Record-wise content equality over the spans: equal counts, usable
  /// flags, header runs and payload bytes per record. Works across storage
  /// modes — a mapped shard store compares equal to the owning store it was
  /// written from.
  friend bool operator==(const CompressedAprilStore& a,
                         const CompressedAprilStore& b);

 private:
  /// Re-aims span_ at the owning vectors. Must run after every mutation
  /// (vector growth relocates the arenas) and after copies/moves.
  void RefreshSpans();

  std::vector<IntervalBlockHeader> headers_;
  std::vector<uint8_t> bytes_;
  /// hdr_begin_[i] = header index of record i's C blocks; hdr_begin_.back()
  /// = headers_.size() always, so hdr_begin_ has Count()+1 entries (same
  /// convention as AprilStore::rec_begin_). byte_begin_ mirrors it over the
  /// byte arena.
  std::vector<uint64_t> hdr_begin_{0};
  std::vector<uint64_t> p_hdr_begin_;
  std::vector<uint64_t> byte_begin_{0};
  std::vector<uint64_t> p_byte_begin_;
  std::vector<uint64_t> c_intervals_;
  std::vector<uint64_t> p_intervals_;
  std::vector<uint8_t> usable_;
  /// The arrays every read goes through; see CompressedStoreSpans.
  CompressedStoreSpans span_;
  /// True when span_ references external (mapped) memory instead of the
  /// vectors above.
  bool external_ = false;
};

}  // namespace stj
