#include "src/raster/april_compressed.h"

#include <cstring>
#include <utility>

#include "src/interval/interval_algebra.h"
#include "src/util/check.h"
#include "src/util/fnv1a.h"

namespace stj {

namespace {

void AppendList(const CompressedIntervalList& list,
                std::vector<IntervalBlockHeader>* headers,
                std::vector<uint8_t>* bytes) {
  headers->insert(headers->end(), list.Headers().begin(),
                  list.Headers().end());
  bytes->insert(bytes->end(), list.Bytes().begin(), list.Bytes().end());
}

}  // namespace

void CompressedAprilStore::RefreshSpans() {
  span_.headers = headers_.data();
  span_.bytes = bytes_.data();
  span_.hdr_begin = hdr_begin_.data();
  span_.p_hdr_begin = p_hdr_begin_.data();
  span_.byte_begin = byte_begin_.data();
  span_.p_byte_begin = p_byte_begin_.data();
  span_.c_intervals = c_intervals_.data();
  span_.p_intervals = p_intervals_.data();
  span_.usable = usable_.data();
  span_.record_fnv = nullptr;  // only a mapped store carries record sums
  span_.count = p_hdr_begin_.size();
}

CompressedAprilStore::CompressedAprilStore(const CompressedAprilStore& other)
    : headers_(other.headers_),
      bytes_(other.bytes_),
      hdr_begin_(other.hdr_begin_),
      p_hdr_begin_(other.p_hdr_begin_),
      byte_begin_(other.byte_begin_),
      p_byte_begin_(other.p_byte_begin_),
      c_intervals_(other.c_intervals_),
      p_intervals_(other.p_intervals_),
      usable_(other.usable_),
      external_(other.external_) {
  // A copy of a mapped store aliases the same external memory; a copy of an
  // owning store points at its own fresh vectors.
  if (external_) {
    span_ = other.span_;
  } else {
    RefreshSpans();
  }
}

CompressedAprilStore& CompressedAprilStore::operator=(
    const CompressedAprilStore& other) {
  if (this == &other) return *this;
  headers_ = other.headers_;
  bytes_ = other.bytes_;
  hdr_begin_ = other.hdr_begin_;
  p_hdr_begin_ = other.p_hdr_begin_;
  byte_begin_ = other.byte_begin_;
  p_byte_begin_ = other.p_byte_begin_;
  c_intervals_ = other.c_intervals_;
  p_intervals_ = other.p_intervals_;
  usable_ = other.usable_;
  external_ = other.external_;
  if (external_) {
    span_ = other.span_;
  } else {
    RefreshSpans();
  }
  return *this;
}

CompressedAprilStore::CompressedAprilStore(
    CompressedAprilStore&& other) noexcept
    : headers_(std::move(other.headers_)),
      bytes_(std::move(other.bytes_)),
      hdr_begin_(std::move(other.hdr_begin_)),
      p_hdr_begin_(std::move(other.p_hdr_begin_)),
      byte_begin_(std::move(other.byte_begin_)),
      p_byte_begin_(std::move(other.p_byte_begin_)),
      c_intervals_(std::move(other.c_intervals_)),
      p_intervals_(std::move(other.p_intervals_)),
      usable_(std::move(other.usable_)),
      external_(other.external_) {
  if (external_) {
    span_ = other.span_;
  } else {
    RefreshSpans();
  }
  // Leave the source in a valid empty owning state.
  other.external_ = false;
  other.Clear();
}

CompressedAprilStore& CompressedAprilStore::operator=(
    CompressedAprilStore&& other) noexcept {
  if (this == &other) return *this;
  headers_ = std::move(other.headers_);
  bytes_ = std::move(other.bytes_);
  hdr_begin_ = std::move(other.hdr_begin_);
  p_hdr_begin_ = std::move(other.p_hdr_begin_);
  byte_begin_ = std::move(other.byte_begin_);
  p_byte_begin_ = std::move(other.p_byte_begin_);
  c_intervals_ = std::move(other.c_intervals_);
  p_intervals_ = std::move(other.p_intervals_);
  usable_ = std::move(other.usable_);
  external_ = other.external_;
  if (external_) {
    span_ = other.span_;
  } else {
    RefreshSpans();
  }
  other.external_ = false;
  other.Clear();
  return *this;
}

CompressedAprilStore CompressedAprilStore::FromSpans(
    const CompressedStoreSpans& spans) {
  STJ_CHECK(spans.hdr_begin != nullptr && spans.byte_begin != nullptr);
  STJ_CHECK(spans.hdr_begin[0] == 0 && spans.byte_begin[0] == 0);
  CompressedAprilStore out;
  out.external_ = true;
  out.span_ = spans;
  return out;
}

void CompressedAprilStore::AppendRecord(
    const CompressedIntervalList& conservative,
    const CompressedIntervalList& progressive, bool usable) {
  STJ_CHECK_MSG(!external_, "cannot mutate a mapped CompressedAprilStore");
  AppendList(conservative, &headers_, &bytes_);
  p_hdr_begin_.push_back(headers_.size());
  p_byte_begin_.push_back(bytes_.size());
  AppendList(progressive, &headers_, &bytes_);
  hdr_begin_.push_back(headers_.size());
  byte_begin_.push_back(bytes_.size());
  c_intervals_.push_back(conservative.Intervals());
  p_intervals_.push_back(progressive.Intervals());
  usable_.push_back(usable ? 1 : 0);
  RefreshSpans();
}

void CompressedAprilStore::AppendEncoded(IntervalView conservative,
                                         IntervalView progressive,
                                         bool usable) {
  AppendRecord(CompressedIntervalList::Encode(conservative),
               CompressedIntervalList::Encode(progressive), usable);
}

void CompressedAprilStore::AppendRecordFrom(const CompressedAprilStore& from,
                                            size_t i) {
  STJ_CHECK_MSG(!external_, "cannot mutate a mapped CompressedAprilStore");
  STJ_CHECK(i < from.Count());
  const CompressedStoreSpans& fs = from.span_;
  const auto CopySpan = [this](const CompressedStoreSpans& src, uint64_t h_lo,
                               uint64_t h_hi, uint64_t b_lo, uint64_t b_hi) {
    headers_.insert(headers_.end(), src.headers + h_lo, src.headers + h_hi);
    bytes_.insert(bytes_.end(), src.bytes + b_lo, src.bytes + b_hi);
  };
  CopySpan(fs, fs.hdr_begin[i], fs.p_hdr_begin[i], fs.byte_begin[i],
           fs.p_byte_begin[i]);
  p_hdr_begin_.push_back(headers_.size());
  p_byte_begin_.push_back(bytes_.size());
  CopySpan(fs, fs.p_hdr_begin[i], fs.hdr_begin[i + 1], fs.p_byte_begin[i],
           fs.byte_begin[i + 1]);
  hdr_begin_.push_back(headers_.size());
  byte_begin_.push_back(bytes_.size());
  c_intervals_.push_back(fs.c_intervals[i]);
  p_intervals_.push_back(fs.p_intervals[i]);
  usable_.push_back(fs.usable[i]);
  RefreshSpans();
}

void CompressedAprilStore::Reserve(size_t records, size_t blocks,
                                   size_t payload_bytes) {
  STJ_CHECK_MSG(!external_, "cannot mutate a mapped CompressedAprilStore");
  headers_.reserve(blocks);
  bytes_.reserve(payload_bytes);
  hdr_begin_.reserve(records + 1);
  p_hdr_begin_.reserve(records);
  byte_begin_.reserve(records + 1);
  p_byte_begin_.reserve(records);
  c_intervals_.reserve(records);
  p_intervals_.reserve(records);
  usable_.reserve(records);
  RefreshSpans();
}

void CompressedAprilStore::Clear() {
  headers_.clear();
  bytes_.clear();
  hdr_begin_.assign(1, 0);
  p_hdr_begin_.clear();
  byte_begin_.assign(1, 0);
  p_byte_begin_.clear();
  c_intervals_.clear();
  p_intervals_.clear();
  usable_.clear();
  external_ = false;
  RefreshSpans();
}

CompressedAprilStore CompressedAprilStore::FromStore(const AprilStore& store) {
  CompressedAprilStore out;
  out.Reserve(store.Count(), /*blocks=*/0, /*payload_bytes=*/0);
  for (size_t i = 0; i < store.Count(); ++i) {
    if (!store.Usable(i)) {
      out.AppendCorruptPlaceholder();
    } else {
      out.AppendEncoded(store.Conservative(i), store.Progressive(i));
    }
  }
  return out;
}

bool CompressedAprilStore::DecodeRecord(
    size_t i, std::vector<CellInterval>* conservative,
    std::vector<CellInterval>* progressive) const {
  if (span_.record_fnv != nullptr &&
      RecordChecksum(i) != span_.record_fnv[i]) {
    return false;
  }
  return DecodeCompressed(Conservative(i), conservative) &&
         DecodeCompressed(Progressive(i), progressive);
}

uint64_t CompressedAprilStore::RecordChecksum(size_t i) const {
  const CompressedStoreSpans& s = span_;
  uint64_t h = Fnv1a64(s.usable + i, 1);
  h = Fnv1a64(s.c_intervals + i, sizeof(uint64_t), h);
  h = Fnv1a64(s.p_intervals + i, sizeof(uint64_t), h);
  // A record's C run is followed by its P run in both arenas, so one span
  // per arena hashes C then P.
  h = Fnv1a64(s.headers + s.hdr_begin[i],
              (s.hdr_begin[i + 1] - s.hdr_begin[i]) *
                  sizeof(IntervalBlockHeader),
              h);
  return Fnv1a64(s.bytes + s.byte_begin[i],
                 s.byte_begin[i + 1] - s.byte_begin[i], h);
}

std::string CompressedAprilStore::DeepValidateRecord(size_t i) const {
  const CompressedIntervalView c = Conservative(i);
  const CompressedIntervalView p = Progressive(i);
  if (std::string err = ValidateCompressed(c); !err.empty()) {
    return "conservative: " + err;
  }
  if (std::string err = ValidateCompressed(p); !err.empty()) {
    return "progressive: " + err;
  }
  std::vector<CellInterval> flat_c;
  std::vector<CellInterval> flat_p;
  if (!DecodeRecord(i, &flat_c, &flat_p)) return "undecodable record";
  if (!ListInside(IntervalView(flat_p.data(), flat_p.size()),
                  IntervalView(flat_c.data(), flat_c.size()))) {
    return "progressive list not contained in conservative list";
  }
  // Round-trip audit: the encoder is deterministic, so re-encoding the
  // decoded record must reproduce the stored headers and payload bytes
  // exactly. This catches corruption the structural checks cannot, e.g.
  // non-minimal varints that decode to the right values.
  const CompressedIntervalList rc = CompressedIntervalList::Encode(
      IntervalView(flat_c.data(), flat_c.size()));
  const CompressedIntervalList rp = CompressedIntervalList::Encode(
      IntervalView(flat_p.data(), flat_p.size()));
  const auto RoundTripMatches = [](const CompressedIntervalView& stored,
                                   const CompressedIntervalList& redo) {
    if (stored.Blocks() != redo.Headers().size()) return false;
    for (size_t b = 0; b < stored.Blocks(); ++b) {
      if (!(stored.Header(b) == redo.Headers()[b])) return false;
    }
    if (stored.ByteSize() != redo.Bytes().size()) return false;
    return stored.ByteSize() == 0 ||
           std::memcmp(stored.Bytes(), redo.Bytes().data(),
                       stored.ByteSize()) == 0;
  };
  if (!RoundTripMatches(c, rc)) {
    return "conservative: re-encode round trip differs";
  }
  if (!RoundTripMatches(p, rp)) {
    return "progressive: re-encode round trip differs";
  }
  return "";
}

void CompressedAprilStore::ValidateInvariants() const {
  const uint64_t n = span_.count;
  if (!external_) {
    // Owning mode only: the spans must be aimed at the vectors and the CSR
    // tails must close over the arena sizes. (A mapped store has no backing
    // vectors; its array lengths are implied by the CSR tails themselves.)
    STJ_CHECK(span_.headers == headers_.data());
    STJ_CHECK(span_.bytes == bytes_.data());
    STJ_CHECK(hdr_begin_.size() == n + 1);
    STJ_CHECK(p_hdr_begin_.size() == n);
    STJ_CHECK(byte_begin_.size() == n + 1);
    STJ_CHECK(p_byte_begin_.size() == n);
    STJ_CHECK(c_intervals_.size() == n);
    STJ_CHECK(p_intervals_.size() == n);
    STJ_CHECK(usable_.size() == n);
    STJ_CHECK(hdr_begin_.back() == headers_.size());
    STJ_CHECK(byte_begin_.back() == bytes_.size());
  }
  STJ_CHECK(span_.hdr_begin[0] == 0);
  STJ_CHECK(span_.byte_begin[0] == 0);
  for (uint64_t i = 0; i < n; ++i) {
    STJ_CHECK(span_.hdr_begin[i] <= span_.p_hdr_begin[i]);
    STJ_CHECK(span_.p_hdr_begin[i] <= span_.hdr_begin[i + 1]);
    STJ_CHECK(span_.byte_begin[i] <= span_.p_byte_begin[i]);
    STJ_CHECK(span_.p_byte_begin[i] <= span_.byte_begin[i + 1]);
    if (!Usable(i)) {
      STJ_CHECK_MSG(span_.hdr_begin[i] == span_.hdr_begin[i + 1] &&
                        span_.byte_begin[i] == span_.byte_begin[i + 1] &&
                        span_.c_intervals[i] == 0 && span_.p_intervals[i] == 0,
                    "corrupt placeholder record must be empty");
      continue;
    }
    const std::string err = DeepValidateRecord(i);
    STJ_CHECK_MSG(err.empty(), "compressed APRIL record invalid");
  }
}

size_t CompressedAprilStore::ByteSize() const {
  const size_t n = static_cast<size_t>(span_.count);
  return PayloadByteSize() + (6 * n + 2) * sizeof(uint64_t) +
         n * sizeof(uint8_t);
}

bool operator==(const CompressedAprilStore& a, const CompressedAprilStore& b) {
  if (a.span_.count != b.span_.count) return false;
  const uint64_t n = a.span_.count;
  const auto SpansEqual = [](const CompressedIntervalView& x,
                             const CompressedIntervalView& y) {
    if (x.Blocks() != y.Blocks() || x.ByteSize() != y.ByteSize() ||
        x.Intervals() != y.Intervals()) {
      return false;
    }
    for (size_t blk = 0; blk < x.Blocks(); ++blk) {
      if (!(x.Header(blk) == y.Header(blk))) return false;
    }
    return x.ByteSize() == 0 ||
           std::memcmp(x.Bytes(), y.Bytes(), x.ByteSize()) == 0;
  };
  for (uint64_t i = 0; i < n; ++i) {
    if (a.span_.usable[i] != b.span_.usable[i]) return false;
    if (!SpansEqual(a.Conservative(i), b.Conservative(i))) return false;
    if (!SpansEqual(a.Progressive(i), b.Progressive(i))) return false;
  }
  return true;
}

}  // namespace stj
