#include "src/raster/april_io.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>

#include "src/interval/interval_codec.h"
#include "src/raster/april_store.h"

namespace stj {

namespace {

constexpr char kMagic[4] = {'A', 'P', 'R', 'B'};
constexpr uint32_t kVersion = 3;
constexpr uint64_t kMaxListSize = 1ull << 40;   // corrupt size guard
constexpr uint64_t kMaxBlockCount =
    kMaxListSize / kCodecBlockIntervals + 1;
constexpr uint64_t kMaxObjectCount = 1ull << 32;
constexpr size_t kMaxReportedIndices = 1024;
constexpr size_t kReserveCap = 4096;  // never trust an on-disk count for alloc

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// LEB128 varint encoding.
void AppendVarint(std::string* out, uint64_t v) {
  do {
    char byte = static_cast<char>(v & 0x7F);
    v >>= 7;
    if (v != 0) byte = static_cast<char>(byte | char(0x80));
    out->push_back(byte);
  } while (v != 0);
}

/// Bounded cursor over loaded file bytes. Reads never run past the end;
/// a short read leaves the cursor untouched and returns false.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  size_t Pos() const { return pos_; }
  size_t Remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  bool ReadBytes(void* out, size_t n) {
    if (Remaining() < n) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  bool ReadU32(uint32_t* v) { return ReadBytes(v, sizeof *v); }
  bool ReadU64(uint64_t* v) { return ReadBytes(v, sizeof *v); }

  bool ReadVarint(uint64_t* out) {
    uint64_t value = 0;
    size_t p = pos_;
    for (int shift = 0; shift < 64; shift += 7) {
      if (p == size_) return false;
      const unsigned char c = static_cast<unsigned char>(data_[p++]);
      value |= static_cast<uint64_t>(c & 0x7F) << shift;
      if ((c & 0x80) == 0) {
        *out = value;
        pos_ = p;
        return true;
      }
    }
    return false;  // over-long varint
  }

  bool Skip(uint64_t n) {
    if (Remaining() < n) return false;
    pos_ += static_cast<size_t>(n);
    return true;
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Serialises one compressed list: varint interval and block counts, the
/// block headers (first_cell, range span, count, payload length — byte
/// offsets are implicit prefix sums), then the concatenated block payloads.
void AppendListBlocked(std::string* out, const CompressedIntervalView& view) {
  AppendVarint(out, view.Intervals());
  AppendVarint(out, view.Blocks());
  for (size_t b = 0; b < view.Blocks(); ++b) {
    const IntervalBlockHeader& header = view.Header(b);
    const size_t next = b + 1 < view.Blocks() ? view.Header(b + 1).byte_offset
                                              : view.ByteSize();
    AppendVarint(out, header.first_cell);
    AppendVarint(out, header.last_end - header.first_cell);
    AppendVarint(out, header.count);
    AppendVarint(out, next - header.byte_offset);
  }
  out->append(reinterpret_cast<const char*>(view.Bytes()), view.ByteSize());
}

/// One parsed record; buffers are reused across records of a load.
struct BlockedRecord {
  std::vector<IntervalBlockHeader> c_headers;
  std::vector<IntervalBlockHeader> p_headers;
  std::vector<uint8_t> c_bytes;
  std::vector<uint8_t> p_bytes;
  uint64_t c_intervals = 0;
  uint64_t p_intervals = 0;

  CompressedIntervalView Conservative() const {
    return CompressedIntervalView(c_headers.data(), c_headers.size(),
                                  c_bytes.data(), c_bytes.size(),
                                  c_intervals);
  }
  CompressedIntervalView Progressive() const {
    return CompressedIntervalView(p_headers.data(), p_headers.size(),
                                  p_bytes.data(), p_bytes.size(),
                                  p_intervals);
  }
};

/// Parses one blocked list. Structural guards only (counts and byte spans in
/// range, offsets reconstructible); canonical-form validation happens via
/// ValidateCompressed on the assembled view.
bool ReadListBlocked(ByteReader* in,
                     std::vector<IntervalBlockHeader>* headers,
                     std::vector<uint8_t>* bytes, uint64_t* intervals) {
  headers->clear();
  bytes->clear();
  uint64_t num_intervals = 0;
  uint64_t num_blocks = 0;
  if (!in->ReadVarint(&num_intervals) || !in->ReadVarint(&num_blocks)) {
    return false;
  }
  if (num_intervals > kMaxListSize || num_blocks > kMaxBlockCount) {
    return false;
  }
  // Each block needs at least 4 header bytes; cheap plausibility bound
  // before reserving.
  if (num_blocks * 4 > in->Remaining()) return false;
  headers->reserve(static_cast<size_t>(num_blocks));
  uint64_t payload_total = 0;
  for (uint64_t b = 0; b < num_blocks; ++b) {
    uint64_t first_cell = 0;
    uint64_t span = 0;
    uint64_t count = 0;
    uint64_t payload_len = 0;
    if (!in->ReadVarint(&first_cell) || !in->ReadVarint(&span) ||
        !in->ReadVarint(&count) || !in->ReadVarint(&payload_len)) {
      return false;
    }
    if (span == 0 || first_cell > ~uint64_t{0} - span) return false;
    if (count == 0 || count > kCodecBlockIntervals) return false;
    if (payload_len == 0 || payload_len > in->Remaining()) return false;
    if (payload_total > std::numeric_limits<uint32_t>::max() - payload_len) {
      return false;
    }
    IntervalBlockHeader header;
    header.first_cell = first_cell;
    header.last_end = first_cell + span;
    header.count = static_cast<uint32_t>(count);
    header.byte_offset = static_cast<uint32_t>(payload_total);
    payload_total += payload_len;
    headers->push_back(header);
  }
  if (payload_total > in->Remaining()) return false;
  bytes->resize(static_cast<size_t>(payload_total));
  if (payload_total != 0 &&
      !in->ReadBytes(bytes->data(), static_cast<size_t>(payload_total))) {
    return false;
  }
  *intervals = num_intervals;
  return true;
}

/// Parses and deep-validates one record payload. Must consume the payload
/// exactly; both lists must pass ValidateCompressed.
bool DecodeBlockedPayload(const char* data, size_t size, BlockedRecord* rec) {
  ByteReader in(data, size);
  if (!ReadListBlocked(&in, &rec->c_headers, &rec->c_bytes,
                       &rec->c_intervals) ||
      !ReadListBlocked(&in, &rec->p_headers, &rec->p_bytes,
                       &rec->p_intervals) ||
      !in.AtEnd()) {
    return false;
  }
  return ValidateCompressed(rec->Conservative()).empty() &&
         ValidateCompressed(rec->Progressive()).empty();
}

Status ReadWholeFile(const std::string& path, std::string* out) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::NotFound("cannot open APRIL file").WithFile(path);
  }
  out->clear();
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f.get())) > 0) {
    out->append(buf, n);
  }
  if (std::ferror(f.get()) != 0) {
    return Status::IoError("read error").WithFile(path);
  }
  return Status::Ok();
}

/// Counts one unusable record that stays in the output as a placeholder.
void ReportUnusable(uint64_t index, uint64_t* counter,
                    AprilLoadReport* report) {
  ++*counter;
  if (report->corrupt_indices.size() < kMaxReportedIndices) {
    report->corrupt_indices.push_back(index);
  }
}

/// Checks the file header and positions \p in at the first frame.
Status ParseFileHeader(const std::string& path, ByteReader* in,
                       uint32_t* version, uint64_t* count) {
  char magic[4];
  if (!in->ReadBytes(magic, 4)) {
    return Status::DataLoss("file too short for magic")
        .WithFile(path)
        .WithOffset(in->Pos());
  }
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("not an APRIL version-3 file (bad magic)")
        .WithFile(path)
        .WithOffset(0);
  }
  if (!in->ReadU32(version)) {
    return Status::DataLoss("file too short for version")
        .WithFile(path)
        .WithOffset(in->Pos());
  }
  if (*version != kVersion) {
    return Status::InvalidArgument("unsupported APRIL format version " +
                                   std::to_string(*version))
        .WithFile(path)
        .WithOffset(4);
  }
  if (!in->ReadU64(count)) {
    return Status::DataLoss("file too short for object count")
        .WithFile(path)
        .WithOffset(in->Pos());
  }
  if (*count > kMaxObjectCount) {
    return Status::DataLoss("implausible object count " +
                            std::to_string(*count))
        .WithFile(path)
        .WithOffset(8);
  }
  return Status::Ok();
}

/// The frame loop both loaders share. After the header check it calls
/// \p reserve(declared count), then walks the framed records. A bad
/// checksum costs one object: \p placeholder() keeps later records
/// index-aligned and the reader resynchronises at the next frame. A record
/// whose checksum holds but whose payload fails deep codec validation — or
/// that \p append(record) refuses — is isolated the same way and counted as
/// codec_corrupt. A frame that runs past the end of the file means the tail
/// is gone: the verified prefix is kept.
template <typename ReserveFn, typename AppendFn, typename PlaceholderFn>
Status LoadFrames(const std::string& path, AprilLoadReport* report,
                  const ReserveFn& reserve, const AppendFn& append,
                  const PlaceholderFn& placeholder) {
  AprilLoadReport local;
  if (report == nullptr) report = &local;
  *report = AprilLoadReport{};
  std::string bytes;
  if (Status st = ReadWholeFile(path, &bytes); !st.ok()) return st;
  ByteReader in(bytes.data(), bytes.size());
  uint64_t count = 0;
  if (Status st = ParseFileHeader(path, &in, &report->version, &count);
      !st.ok()) {
    return st;
  }
  report->declared_count = count;
  reserve(static_cast<size_t>(std::min<uint64_t>(count, kReserveCap)));

  BlockedRecord rec;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t payload_size = 0;
    uint64_t checksum = 0;
    if (!in.ReadU64(&payload_size) || !in.ReadU64(&checksum) ||
        payload_size > in.Remaining()) {
      report->truncated = true;
      report->corrupt += count - i;
      break;
    }
    const char* payload = bytes.data() + in.Pos();
    in.Skip(payload_size);
    if (Fnv1a64(payload, static_cast<size_t>(payload_size)) != checksum) {
      placeholder();
      ReportUnusable(i, &report->corrupt, report);
      continue;
    }
    if (!DecodeBlockedPayload(payload, static_cast<size_t>(payload_size),
                              &rec) ||
        !append(rec)) {
      placeholder();
      ReportUnusable(i, &report->codec_corrupt, report);
      continue;
    }
    ++report->loaded;
  }
  return Status::Ok();
}

}  // namespace

bool SaveAprilStoreBlocked(const std::string& path,
                           const CompressedAprilStore& store) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) return false;
  const uint64_t declared = store.Count();
  if (std::fwrite(kMagic, 1, 4, f.get()) != 4 ||
      std::fwrite(&kVersion, sizeof kVersion, 1, f.get()) != 1 ||
      std::fwrite(&declared, sizeof declared, 1, f.get()) != 1) {
    return false;
  }
  std::string payload;
  for (size_t i = 0; i < store.Count(); ++i) {
    payload.clear();
    AppendListBlocked(&payload, store.Conservative(i));
    AppendListBlocked(&payload, store.Progressive(i));
    const uint64_t size = payload.size();
    const uint64_t checksum = Fnv1a64(payload.data(), payload.size());
    if (std::fwrite(&size, sizeof size, 1, f.get()) != 1) return false;
    if (std::fwrite(&checksum, sizeof checksum, 1, f.get()) != 1) return false;
    if (!payload.empty() &&
        std::fwrite(payload.data(), 1, payload.size(), f.get()) !=
            payload.size()) {
      return false;
    }
  }
  return std::fflush(f.get()) == 0;
}

Status LoadCompressedAprilStore(const std::string& path,
                                CompressedAprilStore* out,
                                AprilLoadReport* report) {
  out->Clear();
  return LoadFrames(
      path, report,
      [&](size_t records) {
        out->Reserve(records, /*blocks=*/0, /*payload_bytes=*/0);
      },
      [&](const BlockedRecord& rec) {
        out->AppendRecord(
            CompressedIntervalList::FromParts(rec.c_headers, rec.c_bytes,
                                              rec.c_intervals),
            CompressedIntervalList::FromParts(rec.p_headers, rec.p_bytes,
                                              rec.p_intervals));
        return true;
      },
      [&] { out->AppendCorruptPlaceholder(); });
}

Status LoadAprilStore(const std::string& path, AprilStore* out,
                      AprilLoadReport* report) {
  out->Clear();
  // Record-decoding scratch, reused across all records of the load, so the
  // arena load runs allocation-free in steady state.
  std::vector<CellInterval> conservative;
  std::vector<CellInterval> progressive;
  return LoadFrames(
      path, report,
      [&](size_t records) { out->Reserve(records, /*intervals=*/0); },
      [&](const BlockedRecord& rec) {
        if (!DecodeCompressed(rec.Conservative(), &conservative) ||
            !DecodeCompressed(rec.Progressive(), &progressive)) {
          return false;
        }
        out->AppendRecord(
            IntervalView(conservative.data(), conservative.size()),
            IntervalView(progressive.data(), progressive.size()));
        return true;
      },
      [&] { out->AppendCorruptPlaceholder(); });
}

}  // namespace stj
