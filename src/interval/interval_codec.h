#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/interval/interval_list.h"

namespace stj {

/// Delta/varint block codec for canonical interval lists — the APRIL record
/// representation in shard files (PAPERS.md: compressed APRIL variants). It
/// is a storage encoding only: the filters read records decoded back to
/// flat lists (DecodedAprilCache).
///
/// A list is chunked into fixed runs of kCodecBlockIntervals intervals (the
/// last block may be shorter). Each block gets a fixed-size header carrying
/// its covered cell range and interval count, which pins every block's
/// endpoints so deep validation (ValidateCompressed) can check each payload
/// against its header. Chunking is deterministic, and the byte encoding of a
/// block is a pure function of its intervals — equal lists always produce
/// byte-identical encodings (the aprilcheck re-encode audit relies on
/// this).
///
/// Block payload (LEB128 varints; begins/ends are recovered by prefix sums):
///   varint(len_0 - 1)                       first interval; begin is
///                                           header.first_cell
///   [ varint(gap_k - 1), varint(len_k - 1) ]  for each later interval;
///                                           gap_k = begin_k - end_{k-1} >= 1
///                                           in canonical (non-adjacent) form
inline constexpr size_t kCodecBlockIntervals = 32;

/// Fixed-size block header: the block covers cell range
/// [first_cell, last_end) and holds `count` intervals starting at
/// `byte_offset` within the list's payload bytes.
struct IntervalBlockHeader {
  CellId first_cell = 0;
  CellId last_end = 0;
  uint32_t count = 0;
  uint32_t byte_offset = 0;

  friend bool operator==(const IntervalBlockHeader& a,
                         const IntervalBlockHeader& b) {
    return a.first_cell == b.first_cell && a.last_end == b.last_end &&
           a.count == b.count && a.byte_offset == b.byte_offset;
  }
};

/// Non-owning view of one compressed list: a header array plus the payload
/// byte span. Mirrors IntervalView for arena-backed storage
/// (CompressedAprilStore keeps both columns in CSR arenas).
class CompressedIntervalView {
 public:
  CompressedIntervalView() = default;
  CompressedIntervalView(const IntervalBlockHeader* headers, size_t num_blocks,
                         const uint8_t* bytes, size_t byte_size,
                         uint64_t num_intervals)
      : headers_(headers),
        num_blocks_(num_blocks),
        bytes_(bytes),
        byte_size_(byte_size),
        num_intervals_(num_intervals) {}

  size_t Blocks() const { return num_blocks_; }
  bool Empty() const { return num_blocks_ == 0; }
  uint64_t Intervals() const { return num_intervals_; }
  const IntervalBlockHeader& Header(size_t b) const { return headers_[b]; }
  const uint8_t* Bytes() const { return bytes_; }
  size_t ByteSize() const { return byte_size_; }

  /// First cell id covered; view must be non-empty.
  CellId FrontCell() const { return headers_[0].first_cell; }

  /// One past the last cell id covered; view must be non-empty.
  CellId BackEnd() const { return headers_[num_blocks_ - 1].last_end; }

  /// Decodes block \p b into \p out (capacity >= kCodecBlockIntervals).
  /// Returns the interval count, or 0 if the payload is malformed (truncated
  /// varints, overflow, or non-canonical deltas). Well-formed blocks are
  /// never empty, so 0 is unambiguous.
  size_t DecodeBlock(size_t b, CellInterval* out) const;

 private:
  const IntervalBlockHeader* headers_ = nullptr;
  size_t num_blocks_ = 0;
  const uint8_t* bytes_ = nullptr;
  size_t byte_size_ = 0;
  uint64_t num_intervals_ = 0;
};

/// Owning compressed list (header + payload vectors); the heap-backed
/// counterpart of CompressedIntervalView, as IntervalList is of IntervalView.
class CompressedIntervalList {
 public:
  CompressedIntervalList() = default;

  /// Encodes a canonical list. Aborts (STJ_CHECK) on non-canonical input or
  /// a payload beyond the 32-bit per-list offset space.
  static CompressedIntervalList Encode(IntervalView list);

  /// Adopts already-encoded parts (tests build malformed lists with it). No
  /// validation here — callers must run ValidateCompressed on the view
  /// before trusting the data.
  static CompressedIntervalList FromParts(
      std::vector<IntervalBlockHeader> headers, std::vector<uint8_t> bytes,
      uint64_t num_intervals) {
    CompressedIntervalList out;
    out.headers_ = std::move(headers);
    out.bytes_ = std::move(bytes);
    out.num_intervals_ = num_intervals;
    return out;
  }

  CompressedIntervalView View() const {
    return CompressedIntervalView(headers_.data(), headers_.size(),
                                  bytes_.data(), bytes_.size(),
                                  num_intervals_);
  }

  /// Decodes back to the flat canonical form; aborts on malformed payloads
  /// (cannot happen for lists built by Encode).
  IntervalList Decode() const;

  const std::vector<IntervalBlockHeader>& Headers() const { return headers_; }
  const std::vector<uint8_t>& Bytes() const { return bytes_; }
  uint64_t Intervals() const { return num_intervals_; }

  /// Compressed in-memory footprint (headers + payload), for the
  /// compression-ratio reporting in EXPERIMENTS.md.
  size_t ByteSize() const {
    return headers_.size() * sizeof(IntervalBlockHeader) + bytes_.size();
  }

 private:
  std::vector<IntervalBlockHeader> headers_;
  std::vector<uint8_t> bytes_;
  uint64_t num_intervals_ = 0;
};

/// Deep validation: structural header checks (monotone ranges, in-range
/// counts and offsets, interval total) plus a full decode of every block
/// verifying payload/header consistency and canonical form across block
/// boundaries. Returns an explanation for the first defect, or "" when the
/// view is well-formed. Used by CompressedAprilStore::DeepValidateRecord.
std::string ValidateCompressed(const CompressedIntervalView& view);

/// Decodes the whole view into \p out (cleared first). Returns false on any
/// malformed block; on failure \p out holds the prefix decoded so far.
bool DecodeCompressed(const CompressedIntervalView& view,
                      std::vector<CellInterval>* out);

namespace codec {

/// LEB128 varint helpers of the block payload.
void AppendVarint(std::vector<uint8_t>* out, uint64_t value);

/// Reads one varint from [*p, end), advancing *p. Returns false on
/// truncation or a value that does not fit 64 bits.
bool ReadVarint(const uint8_t** p, const uint8_t* end, uint64_t* value);

}  // namespace codec

}  // namespace stj
