#include "src/raster/shard_io.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "src/util/check.h"
#include "src/util/fnv1a.h"
#include "src/util/parallel_for.h"
#include "src/util/thread_annotations.h"

namespace stj {

namespace {

constexpr char kManifestMagic[4] = {'S', 'H', 'D', 'M'};
constexpr char kShardMagic[4] = {'S', 'H', 'R', 'D'};
constexpr char kManifestName[] = "manifest.stj";
constexpr size_t kShardHeaderBytes = 40;
constexpr size_t kSegmentEntryBytes = 32;
/// ValidateShardSet caps the findings it keeps (further ones only count).
constexpr size_t kMaxIssues = 32;

void AppendRaw(std::vector<uint8_t>* out, const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  out->insert(out->end(), p, p + size);
}

void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  AppendRaw(out, &v, sizeof(v));
}

void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  AppendRaw(out, &v, sizeof(v));
}

void AppendF64(std::vector<uint8_t>* out, double v) {
  AppendRaw(out, &v, sizeof(v));
}

/// Bounds-checked sequential reader over a byte span (the manifest payload
/// and shard blobs are parsed through this; a short read means corruption,
/// never UB).
struct ByteReader {
  const uint8_t* data = nullptr;
  size_t size = 0;
  size_t off = 0;

  bool Read(void* out, size_t n) {
    if (size - off < n) return false;
    std::memcpy(out, data + off, n);
    off += n;
    return true;
  }
  bool ReadU32(uint32_t* v) { return Read(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return Read(v, sizeof(*v)); }
  bool ReadF64(double* v) { return Read(v, sizeof(*v)); }
};

size_t AlignUp(size_t v, size_t align) {
  return (v + align - 1) / align * align;
}

std::string PathJoin(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  if (dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

std::string TileFileName(uint32_t tile) {
  std::string num = std::to_string(tile);
  if (num.size() < 6) num.insert(0, 6 - num.size(), '0');
  return "tile_" + num + ".shard";
}

/// Bytes a spill appender holds before it writes them at the spill's end.
constexpr size_t kSpillBlockBytes = size_t{1} << 20;
/// A tile writer's output buffer, and about the most spill bytes it reads
/// at a time (a longer record is read whole).
constexpr size_t kWriteBufferBytes = size_t{1} << 20;
constexpr size_t kReadBufferBytes = size_t{1} << 20;

static_assert(sizeof(Point) == 16, "a record's vertex is (f64 x, f64 y)");

/// Serialises a polygon record: u32 ring count, then per ring a u32 vertex
/// count and the (x, y) doubles. Unaligned by design — the blob is
/// deserialised (memcpy) on load, never cast.
void AppendPolygonRecord(std::vector<uint8_t>* out, const Polygon& polygon) {
  AppendU32(out, static_cast<uint32_t>(polygon.RingCount()));
  const auto append_ring = [out](const Ring& ring) {
    AppendU32(out, static_cast<uint32_t>(ring.Size()));
    AppendRaw(out, ring.Vertices().data(), ring.Size() * sizeof(Point));
  };
  append_ring(polygon.Outer());
  for (const Ring& hole : polygon.Holes()) append_ring(hole);
}

/// The ring of \p vertices exactly: a ring whose last vertex repeats its
/// first is kept whole, where Ring(vertices) would drop that vertex.
Ring ExactRing(std::vector<Point> vertices) {
  if (vertices.size() < 2 || !(vertices.front() == vertices.back())) {
    return Ring(std::move(vertices));
  }
  Ring ring;
  for (const Point& p : vertices) ring.PushBack(p);
  return ring;
}

/// Parses one polygon record (AppendPolygonRecord) into the polygon it was
/// written from.
bool ParsePolygonRecord(ByteReader* r, Polygon* out) {
  uint32_t ring_count = 0;
  if (!r->ReadU32(&ring_count)) return false;
  if (ring_count == 0) return false;
  // Each ring takes at least its 4-byte vertex count: a corrupt ring count
  // the remaining span cannot hold must not drive a huge allocation.
  if (static_cast<uint64_t>(ring_count) * 4 > r->size - r->off) return false;
  std::vector<Ring> rings;
  rings.reserve(ring_count);
  for (uint32_t k = 0; k < ring_count; ++k) {
    uint32_t vertex_count = 0;
    if (!r->ReadU32(&vertex_count)) return false;
    // Each vertex is 16 bytes; reject counts the remaining span cannot hold
    // before reserving (a corrupt count must not drive a huge allocation).
    if (static_cast<uint64_t>(vertex_count) * 16 > r->size - r->off) {
      return false;
    }
    std::vector<Point> vertices(vertex_count);
    r->Read(vertices.data(), vertex_count * sizeof(Point));
    rings.push_back(ExactRing(std::move(vertices)));
  }
  Ring outer = std::move(rings.front());
  rings.erase(rings.begin());
  *out = Polygon(std::move(outer), std::move(rings));
  return true;
}

/// Parses one tile geometry record: u32 id, then the polygon record.
bool ParseObjectGeometry(ByteReader* r, SpatialObject* out) {
  uint32_t id = 0;
  if (!r->ReadU32(&id) || !ParsePolygonRecord(r, &out->geometry)) return false;
  out->id = id;
  return true;
}

/// One parsed shard segment-table entry.
struct SegmentEntry {
  uint32_t kind = 0;
  uint64_t offset = 0;
  uint64_t bytes = 0;
  uint64_t checksum = 0;
};

/// Everything LoadTile / ValidateShardSet trust after the structural layer:
/// the parsed header fields and the table indexed by segment kind.
struct ShardLayout {
  uint64_t tile_id = 0;
  uint64_t object_count = 0;
  SegmentEntry segments[shard::kNumSegments + 1];  // indexed by kind, 1-based
};

/// Parses and structurally verifies a shard file's header and segment
/// table: magic, version, table checksum, one entry per kind, every segment
/// in bounds and 8-aligned. Payload checksums are NOT read here.
Status ParseShardLayout(const uint8_t* data, size_t size,
                        const std::string& path, ShardLayout* out) {
  if (size < kShardHeaderBytes) {
    return Status::DataLoss("shard file shorter than its header")
        .WithFile(path);
  }
  ByteReader r{data, size, 0};
  char magic[4];
  uint32_t version = 0;
  uint32_t segment_count = 0;
  uint32_t reserved = 0;
  uint64_t table_fnv = 0;
  r.Read(magic, 4);
  r.ReadU32(&version);
  r.ReadU64(&out->tile_id);
  r.ReadU64(&out->object_count);
  r.ReadU32(&segment_count);
  r.ReadU32(&reserved);
  r.ReadU64(&table_fnv);
  if (std::memcmp(magic, kShardMagic, 4) != 0) {
    return Status::DataLoss("bad shard magic").WithFile(path);
  }
  if (version != shard::kVersion) {
    return Status::DataLoss("unsupported shard version " +
                            std::to_string(version))
        .WithFile(path);
  }
  if (segment_count != shard::kNumSegments) {
    return Status::DataLoss("unexpected segment count " +
                            std::to_string(segment_count))
        .WithFile(path);
  }
  const size_t table_bytes = segment_count * kSegmentEntryBytes;
  if (size - kShardHeaderBytes < table_bytes) {
    return Status::DataLoss("segment table truncated").WithFile(path);
  }
  if (Fnv1a64(data + kShardHeaderBytes, table_bytes) != table_fnv) {
    return Status::DataLoss("segment table checksum mismatch").WithFile(path);
  }
  for (uint32_t s = 0; s < segment_count; ++s) {
    SegmentEntry e;
    uint32_t pad = 0;
    r.ReadU32(&e.kind);
    r.ReadU32(&pad);
    r.ReadU64(&e.offset);
    r.ReadU64(&e.bytes);
    r.ReadU64(&e.checksum);
    if (e.kind == 0 || e.kind > shard::kNumSegments) {
      return Status::DataLoss("unknown segment kind " +
                              std::to_string(e.kind))
          .WithFile(path);
    }
    if (out->segments[e.kind].kind != 0) {
      return Status::DataLoss("duplicate segment kind " +
                              std::to_string(e.kind))
          .WithFile(path);
    }
    if (e.offset % 8 != 0 || e.offset < kShardHeaderBytes + table_bytes ||
        e.offset > size || size - e.offset < e.bytes) {
      return Status::DataLoss("segment " + std::to_string(e.kind) +
                              " out of bounds")
          .WithFile(path)
          .WithOffset(e.offset);
    }
    out->segments[e.kind] = e;
  }
  for (uint32_t kind = 1; kind <= shard::kNumSegments; ++kind) {
    if (out->segments[kind].kind == 0) {
      return Status::DataLoss("missing segment kind " + std::to_string(kind))
          .WithFile(path);
    }
  }
  return Status::Ok();
}

/// Checks that each typed segment has exactly the byte size the object
/// count (and the CSR tails) dictate. Touches only the *_begin arrays.
Status CheckSegmentShapes(const ShardLayout& layout, const uint8_t* data,
                          const std::string& path) {
  const uint64_t n = layout.object_count;
  const auto expect = [&](uint32_t kind, uint64_t bytes) -> Status {
    if (layout.segments[kind].bytes != bytes) {
      return Status::DataLoss(
                 "segment " + std::to_string(kind) + " holds " +
                 std::to_string(layout.segments[kind].bytes) +
                 " bytes, expected " + std::to_string(bytes))
          .WithFile(path);
    }
    return Status::Ok();
  };
  Status st;
  if (!(st = expect(shard::kObjectIds, n * 4)).ok()) return st;
  if (!(st = expect(shard::kGeometryIndex, (n + 1) * 8)).ok()) return st;
  if (!(st = expect(shard::kAprilHdrBegin, (n + 1) * 8)).ok()) return st;
  if (!(st = expect(shard::kAprilPHdrBegin, n * 8)).ok()) return st;
  if (!(st = expect(shard::kAprilByteBegin, (n + 1) * 8)).ok()) return st;
  if (!(st = expect(shard::kAprilPByteBegin, n * 8)).ok()) return st;
  if (!(st = expect(shard::kAprilCIntervals, n * 8)).ok()) return st;
  if (!(st = expect(shard::kAprilPIntervals, n * 8)).ok()) return st;
  if (!(st = expect(shard::kAprilUsable, n)).ok()) return st;
  if (!(st = expect(shard::kAprilRecordFnv, n * 8)).ok()) return st;

  const uint64_t* hdr_begin = reinterpret_cast<const uint64_t*>(
      data + layout.segments[shard::kAprilHdrBegin].offset);
  const uint64_t* p_hdr_begin = reinterpret_cast<const uint64_t*>(
      data + layout.segments[shard::kAprilPHdrBegin].offset);
  const uint64_t* byte_begin = reinterpret_cast<const uint64_t*>(
      data + layout.segments[shard::kAprilByteBegin].offset);
  const uint64_t* p_byte_begin = reinterpret_cast<const uint64_t*>(
      data + layout.segments[shard::kAprilPByteBegin].offset);
  if (hdr_begin[0] != 0 || byte_begin[0] != 0) {
    return Status::DataLoss("APRIL offset tables do not start at 0")
        .WithFile(path);
  }
  // The bracketing below is what makes FromSpans pointer arithmetic safe —
  // a corrupt begin-array must fail here, not fault in the filter.
  for (uint64_t i = 0; i < n; ++i) {
    if (hdr_begin[i] > p_hdr_begin[i] || p_hdr_begin[i] > hdr_begin[i + 1] ||
        byte_begin[i] > p_byte_begin[i] ||
        p_byte_begin[i] > byte_begin[i + 1]) {
      return Status::DataLoss("APRIL offset tables not monotone at record " +
                              std::to_string(i))
          .WithFile(path);
    }
  }
  if (!(st = expect(shard::kAprilHeaders,
                    hdr_begin[n] * sizeof(IntervalBlockHeader)))
           .ok()) {
    return st;
  }
  if (!(st = expect(shard::kAprilBytes, byte_begin[n])).ok()) return st;
  return Status::Ok();
}

/// One shard file written front to back through a bounded buffer, keeping
/// the FNV-1a of the segment being written; the head (header and segment
/// table) is written over the zeros at its start last.
class TileStream {
 public:
  TileStream(const std::string& path, std::vector<uint8_t>* buffer)
      : path_(path), buffer_(buffer) {
    file_ = std::fopen(path.c_str(), "wb");
    opened_ = ok_ = file_ != nullptr;
    buffer_->clear();
  }
  ~TileStream() {
    if (file_ != nullptr) std::fclose(file_);
  }
  TileStream(const TileStream&) = delete;
  TileStream& operator=(const TileStream&) = delete;

  /// Zero-fills up to \p offset (not hashed).
  void PadTo(uint64_t offset) {
    static constexpr uint8_t kZeros[shard::kPageAlign] = {};
    while (at_ < offset) {
      const size_t gap = std::min<uint64_t>(offset - at_, sizeof(kZeros));
      Raw(kZeros, gap);
    }
  }
  /// Starts the next segment's checksum.
  void BeginSegment() { fnv_ = kFnv1a64Basis; }
  void Put(const void* data, size_t bytes) {
    fnv_ = Fnv1a64(data, bytes, fnv_);
    Raw(data, bytes);
  }
  void PutU64(uint64_t v) { Put(&v, sizeof(v)); }
  uint64_t Checksum() const { return fnv_; }
  uint64_t At() const { return at_; }
  bool Opened() const { return opened_; }

  /// Flushes, writes \p head at offset 0 and closes the file.
  Status Finish(const std::vector<uint8_t>& head) {
    Drain();
    if (ok_) {
      ok_ = std::fseek(file_, 0, SEEK_SET) == 0 &&
            std::fwrite(head.data(), 1, head.size(), file_) == head.size();
    }
    if (file_ != nullptr) {
      ok_ = std::fclose(file_) == 0 && ok_;
      file_ = nullptr;
    }
    if (!ok_) {
      return Status::IoError("short write").WithFile(path_);
    }
    return Status::Ok();
  }

 private:
  void Raw(const void* data, size_t bytes) {
    at_ += bytes;
    const uint8_t* p = static_cast<const uint8_t*>(data);
    while (bytes != 0) {
      const size_t room = kWriteBufferBytes - buffer_->size();
      const size_t take = std::min(room, bytes);
      buffer_->insert(buffer_->end(), p, p + take);
      p += take;
      bytes -= take;
      if (buffer_->size() == kWriteBufferBytes) Drain();
    }
  }
  void Drain() {
    if (ok_ && !buffer_->empty()) {
      ok_ = std::fwrite(buffer_->data(), 1, buffer_->size(), file_) ==
            buffer_->size();
    }
    buffer_->clear();
  }

  std::string path_;
  std::vector<uint8_t>* buffer_;
  std::FILE* file_ = nullptr;
  bool opened_ = false;
  bool ok_ = false;
  uint64_t at_ = 0;
  uint64_t fnv_ = kFnv1a64Basis;
};

/// A tile writer worker's buffers, reused from tile to tile.
struct TileBuffers {
  std::vector<uint8_t> write;
  std::vector<uint8_t> read;
};

/// Streams tile \p t — the \p n objects \p ids names — to \p path: each
/// segment at its page-aligned offset, the geometry records copied from
/// \p spill and the APRIL records from \p store byte for byte, then the
/// header and segment table. \p file_bytes receives the file's size.
Status WriteTileShard(const std::string& path, uint32_t t, const uint32_t* ids,
                      uint64_t n, const GeometrySpill& spill,
                      const CompressedAprilStore& store, TileBuffers* buffers,
                      uint64_t* file_bytes) {
  const std::vector<SpilledObject>& objects = spill.Objects();
  const CompressedStoreSpans& s = store.Spans();
  uint64_t blob_bytes = 0;
  uint64_t headers = 0;
  uint64_t payload_bytes = 0;
  for (uint64_t i = 0; i < n; ++i) {
    blob_bytes += 4 + objects[ids[i]].RecordBytes();
    headers += s.hdr_begin[ids[i] + 1] - s.hdr_begin[ids[i]];
    payload_bytes += s.byte_begin[ids[i] + 1] - s.byte_begin[ids[i]];
  }
  // Segment byte sizes in table order (kinds 1 to 13).
  const uint64_t sizes[shard::kNumSegments] = {
      n * 4,  (n + 1) * 8, blob_bytes, headers * sizeof(IntervalBlockHeader),
      payload_bytes, (n + 1) * 8, n * 8, (n + 1) * 8, n * 8, n * 8, n * 8, n,
      n * 8};
  const size_t table_bytes = shard::kNumSegments * kSegmentEntryBytes;
  uint64_t offsets[shard::kNumSegments];
  uint64_t cursor = kShardHeaderBytes + table_bytes;
  for (uint32_t k = 0; k < shard::kNumSegments; ++k) {
    cursor = AlignUp(cursor, shard::kPageAlign);
    offsets[k] = cursor;
    cursor += sizes[k];
  }

  // Each segment is generated in table order from the tile's ids; the
  // per-tile CSR arrays restart at 0, as a slice of AppendRecordFrom copies
  // would.
  TileStream out(path, &buffers->write);
  if (!out.Opened()) {
    return Status::IoError("cannot open for writing").WithFile(path);
  }
  uint64_t checksums[shard::kNumSegments];
  // A failed spill read abandons the tile where it stands: the segment is
  // short, and read_status is what the tile reports.
  Status read_status;
  const auto segment = [&](uint32_t k, const auto& write) {
    out.PadTo(offsets[k]);
    out.BeginSegment();
    write();
    if (!read_status.ok()) return;
    STJ_CHECK(out.At() == offsets[k] + sizes[k]);
    checksums[k] = out.Checksum();
  };
  out.PadTo(kShardHeaderBytes + table_bytes);
  segment(0, [&] { out.Put(ids, n * 4); });
  segment(1, [&] {
    uint64_t at = 0;
    out.PutU64(at);
    for (uint64_t i = 0; i < n; ++i) {
      at += 4 + objects[ids[i]].RecordBytes();
      out.PutU64(at);
    }
  });
  segment(2, [&] {
    // Runs of records, about a read buffer's worth (at least one) each.
    for (uint64_t i = 0; i < n && read_status.ok();) {
      uint64_t run_bytes = objects[ids[i]].RecordBytes();
      uint64_t end = i + 1;
      while (end < n && run_bytes + objects[ids[end]].RecordBytes() <=
                            kReadBufferBytes) {
        run_bytes += objects[ids[end]].RecordBytes();
        ++end;
      }
      read_status = spill.ReadRecords(ids + i, end - i, &buffers->read);
      if (!read_status.ok()) return;
      const uint8_t* record = buffers->read.data();
      for (; i < end; ++i) {
        const SpilledObject& object = objects[ids[i]];
        out.Put(&object.id, 4);
        out.Put(record, object.RecordBytes());
        record += object.RecordBytes();
      }
    }
  });
  if (!read_status.ok()) return read_status;
  segment(3, [&] {
    for (uint64_t i = 0; i < n; ++i) {
      out.Put(s.headers + s.hdr_begin[ids[i]],
              (s.hdr_begin[ids[i] + 1] - s.hdr_begin[ids[i]]) *
                  sizeof(IntervalBlockHeader));
    }
  });
  segment(4, [&] {
    for (uint64_t i = 0; i < n; ++i) {
      out.Put(s.bytes + s.byte_begin[ids[i]],
              s.byte_begin[ids[i] + 1] - s.byte_begin[ids[i]]);
    }
  });
  // The four offset tables: a record's C run starts at the running total of
  // the runs before it, and its P run follows its C run.
  const auto begins = [&](const uint64_t* begin, const uint64_t* p_begin,
                          bool of_p) {
    uint64_t at = 0;
    if (!of_p) out.PutU64(at);
    for (uint64_t i = 0; i < n; ++i) {
      const uint32_t id = ids[i];
      if (of_p) out.PutU64(at + (p_begin[id] - begin[id]));
      at += begin[id + 1] - begin[id];
      if (!of_p) out.PutU64(at);
    }
  };
  segment(5, [&] { begins(s.hdr_begin, s.p_hdr_begin, false); });
  segment(6, [&] { begins(s.hdr_begin, s.p_hdr_begin, true); });
  segment(7, [&] { begins(s.byte_begin, s.p_byte_begin, false); });
  segment(8, [&] { begins(s.byte_begin, s.p_byte_begin, true); });
  segment(9, [&] {
    for (uint64_t i = 0; i < n; ++i) out.PutU64(s.c_intervals[ids[i]]);
  });
  segment(10, [&] {
    for (uint64_t i = 0; i < n; ++i) out.PutU64(s.p_intervals[ids[i]]);
  });
  segment(11, [&] {
    for (uint64_t i = 0; i < n; ++i) out.Put(s.usable + ids[i], 1);
  });
  segment(12, [&] {
    for (uint64_t i = 0; i < n; ++i) out.PutU64(store.RecordChecksum(ids[i]));
  });

  std::vector<uint8_t> table;
  table.reserve(table_bytes);
  for (uint32_t k = 0; k < shard::kNumSegments; ++k) {
    AppendU32(&table, k + 1);  // kinds are numbered in table order
    AppendU32(&table, 0);
    AppendU64(&table, offsets[k]);
    AppendU64(&table, sizes[k]);
    AppendU64(&table, checksums[k]);
  }
  std::vector<uint8_t> head;
  head.reserve(kShardHeaderBytes + table_bytes);
  AppendRaw(&head, kShardMagic, 4);
  AppendU32(&head, shard::kVersion);
  AppendU64(&head, t);
  AppendU64(&head, n);
  AppendU32(&head, shard::kNumSegments);
  AppendU32(&head, 0);
  AppendU64(&head, Fnv1a64(table.data(), table.size()));
  AppendRaw(&head, table.data(), table.size());
  *file_bytes = cursor;
  return out.Finish(head);
}

}  // namespace

Status GeometrySpill::Create(const std::string& dir, GeometrySpill* out) {
  out->objects_.clear();
  out->end_.store(0, std::memory_order_relaxed);
  return SpillFile::Create(dir, &out->file_);
}

Status GeometrySpill::FromObjects(const std::string& dir,
                                  const std::vector<SpatialObject>& objects,
                                  GeometrySpill* out) {
  Status st = Create(dir, out);
  if (!st.ok()) return st;
  Appender appender(out);
  for (const SpatialObject& object : objects) {
    st = appender.Append(object.id, object.geometry);
    if (!st.ok()) return st;
  }
  st = appender.Flush();
  if (!st.ok()) return st;
  out->objects_ = std::move(appender.objects());
  return Status::Ok();
}

Status GeometrySpill::Appender::Append(uint32_t id, const Polygon& polygon) {
  SpilledObject object;
  object.mbr = polygon.Bounds();
  object.offset = buffer_.size();  // made absolute by Flush
  object.vertices = polygon.VertexCount();
  object.rings = static_cast<uint32_t>(polygon.RingCount());
  object.id = id;
  AppendPolygonRecord(&buffer_, polygon);
  objects_.push_back(object);
  return buffer_.size() >= kSpillBlockBytes ? Flush() : Status::Ok();
}

Status GeometrySpill::Appender::Flush() {
  if (buffer_.empty()) return Status::Ok();
  const uint64_t at =
      spill_->end_.fetch_add(buffer_.size(), std::memory_order_relaxed);
  for (size_t i = unflushed_; i < objects_.size(); ++i) {
    objects_[i].offset += at;
  }
  unflushed_ = objects_.size();
  Status st = spill_->file_.WriteAt(at, buffer_.data(), buffer_.size());
  buffer_.clear();
  return st;
}

Status GeometrySpill::ReadRecords(const uint32_t* ids, size_t count,
                                  std::vector<uint8_t>* buffer) const {
  uint64_t total = 0;
  for (size_t i = 0; i < count; ++i) total += objects_[ids[i]].RecordBytes();
  buffer->resize(total);
  uint8_t* to = buffer->data();
  for (size_t i = 0; i < count;) {
    const uint64_t begin = objects_[ids[i]].offset;
    uint64_t end = begin + objects_[ids[i]].RecordBytes();
    for (++i; i < count && objects_[ids[i]].offset == end; ++i) {
      end += objects_[ids[i]].RecordBytes();
    }
    Status st = file_.ReadAt(begin, to, end - begin);
    if (!st.ok()) return st;
    to += end - begin;
  }
  return Status::Ok();
}

bool GeometrySpill::ParseRecord(const uint8_t* data, size_t bytes,
                                Polygon* out) {
  ByteReader r{data, bytes, 0};
  return ParsePolygonRecord(&r, out) && r.off == r.size;
}

Status WriteShardSet(const std::string& dir, const TileGrid& grid,
                     const std::vector<uint32_t>& tile_begin,
                     const std::vector<uint32_t>& entries,
                     const std::vector<uint64_t>& tile_units,
                     const GeometrySpill& spill,
                     const CompressedAprilStore& store,
                     ShardWriteStats* stats, unsigned num_threads,
                     const RasterGrid* raster_grid, ExecContext* exec) {
  const uint32_t num_tiles = grid.Tiles();
  const size_t num_objects = spill.Objects().size();
  STJ_CHECK_MSG(store.Count() == num_objects,
                "shard writer needs an APRIL record per object");
  STJ_CHECK(tile_begin.size() == static_cast<size_t>(num_tiles) + 1);
  STJ_CHECK(tile_units.size() == num_tiles);
  STJ_CHECK(tile_begin.back() == entries.size());

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create shard directory: " + ec.message())
        .WithFile(dir);
  }
  // The old manifest goes first: until the new one is written, the
  // directory holds no set, never an old manifest over new tiles.
  if (Status st = RemoveShardManifest(dir); !st.ok()) return st;

  // Tiles are written on the workers, each claiming the next unwritten
  // tile; every tile's file depends only on its own slice, so the bytes do
  // not depend on the thread count. The lowest failing tile's Status is
  // the one reported.
  std::vector<ShardTileInfo> infos(num_tiles);
  std::vector<Status> tile_status(num_tiles);
  const unsigned threads =
      num_threads != 0 ? num_threads
                       : std::max(1u, std::thread::hardware_concurrency());
  STJ_ATOMIC_DOC("tile cursor; fetch_add by every worker, each tile is claimed by exactly one");
  std::atomic<uint32_t> next{0};
  internal::RunWorkers(std::min(threads, num_tiles), [&](unsigned) {
    ExecContext::Scope scope(exec);
    // The buffers are charged up front; a longer record grows the read
    // buffer, and the growth is charged as it happens.
    TileBuffers buffers;
    size_t charged = kWriteBufferBytes + kReadBufferBytes;
    if (exec != nullptr && !exec->TryCharge(charged)) return;
    buffers.write.reserve(kWriteBufferBytes);
    buffers.read.reserve(kReadBufferBytes);
    for (uint32_t t = next.fetch_add(1); t < num_tiles; t = next.fetch_add(1)) {
      if (scope.CheckIn()) break;
      const uint64_t n = tile_begin[t + 1] - tile_begin[t];
      uint64_t file_bytes = 0;
      tile_status[t] =
          WriteTileShard(PathJoin(dir, TileFileName(t)), t,
                         entries.data() + tile_begin[t], n, spill, store,
                         &buffers, &file_bytes);
      infos[t] = ShardTileInfo{n, tile_units[t], file_bytes};
      const size_t held = buffers.write.capacity() + buffers.read.capacity();
      if (exec != nullptr && held > charged) {
        if (!exec->TryCharge(held - charged)) break;
        charged = held;
      }
    }
    if (exec != nullptr) exec->Release(charged);
  });
  if (exec != nullptr && exec->StopRequested()) return exec->ToStatus();
  ShardWriteStats local;
  for (uint32_t t = 0; t < num_tiles; ++t) {
    if (!tile_status[t].ok()) return tile_status[t];
    local.bytes_written += infos[t].file_bytes;
  }
  local.tiles = num_tiles;

  // Manifest last: its presence marks a complete shard set.
  std::vector<uint8_t> payload;
  AppendU64(&payload, num_objects);
  ShardRasterGrid raster;
  if (raster_grid != nullptr) {
    raster = ShardRasterGrid{raster_grid->Order(), raster_grid->Dataspace()};
  }
  AppendU32(&payload, raster.order);
  AppendF64(&payload, raster.dataspace.min.x);
  AppendF64(&payload, raster.dataspace.min.y);
  AppendF64(&payload, raster.dataspace.max.x);
  AppendF64(&payload, raster.dataspace.max.y);
  AppendF64(&payload, grid.domain.min.x);
  AppendF64(&payload, grid.domain.min.y);
  AppendF64(&payload, grid.domain.max.x);
  AppendF64(&payload, grid.domain.max.y);
  AppendU32(&payload, grid.columns);
  AppendU32(&payload, grid.rows);
  for (const double b : grid.x_bounds) AppendF64(&payload, b);
  for (const double b : grid.y_bounds) AppendF64(&payload, b);
  AppendU32(&payload, num_tiles);
  for (const ShardTileInfo& info : infos) {
    AppendU64(&payload, info.object_count);
    AppendU64(&payload, info.units);
    AppendU64(&payload, info.file_bytes);
  }
  std::vector<uint8_t> manifest;
  manifest.reserve(4 + 4 + 16 + payload.size());
  AppendRaw(&manifest, kManifestMagic, 4);
  AppendU32(&manifest, shard::kVersion);
  AppendU64(&manifest, payload.size());
  AppendU64(&manifest, Fnv1a64(payload.data(), payload.size()));
  AppendRaw(&manifest, payload.data(), payload.size());
  const std::string manifest_path = PathJoin(dir, kManifestName);
  std::FILE* f = std::fopen(manifest_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open for writing").WithFile(manifest_path);
  }
  bool ok = std::fwrite(manifest.data(), 1, manifest.size(), f) ==
            manifest.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return Status::IoError("short write").WithFile(manifest_path);
  local.bytes_written += manifest.size();

  if (stats != nullptr) *stats = local;
  return Status::Ok();
}

Status RemoveShardManifest(const std::string& dir) {
  const std::string path = PathJoin(dir, kManifestName);
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec) {
    return Status::IoError("cannot remove the manifest: " + ec.message())
        .WithFile(path);
  }
  return Status::Ok();
}

Status ShardSet::Open(const std::string& dir, ShardSet* out) {
  const std::string path = PathJoin(dir, kManifestName);
  MappedFile map;
  Status st = MappedFile::Open(path, &map);
  if (!st.ok()) return st;
  if (map.Size() < 24) {
    return Status::DataLoss("manifest shorter than its frame").WithFile(path);
  }
  ByteReader r{map.Data(), map.Size(), 0};
  char magic[4];
  uint32_t version = 0;
  uint64_t payload_bytes = 0;
  uint64_t payload_fnv = 0;
  r.Read(magic, 4);
  r.ReadU32(&version);
  r.ReadU64(&payload_bytes);
  r.ReadU64(&payload_fnv);
  if (std::memcmp(magic, kManifestMagic, 4) != 0) {
    return Status::DataLoss("bad manifest magic").WithFile(path);
  }
  if (version != shard::kVersion) {
    return Status::DataLoss("unsupported manifest version " +
                            std::to_string(version))
        .WithFile(path);
  }
  if (map.Size() - r.off != payload_bytes) {
    return Status::DataLoss("manifest payload size mismatch").WithFile(path);
  }
  if (Fnv1a64(map.Data() + r.off, payload_bytes) != payload_fnv) {
    return Status::DataLoss("manifest payload checksum mismatch")
        .WithFile(path);
  }

  ShardSet set;
  set.dir_ = dir;
  TileGrid& grid = set.grid_;
  const Status corrupt =
      Status::DataLoss("manifest payload truncated").WithFile(path);
  if (!r.ReadU64(&set.total_objects_)) return corrupt;
  ShardRasterGrid& raster = set.raster_;
  if (!r.ReadU32(&raster.order) || !r.ReadF64(&raster.dataspace.min.x) ||
      !r.ReadF64(&raster.dataspace.min.y) ||
      !r.ReadF64(&raster.dataspace.max.x) ||
      !r.ReadF64(&raster.dataspace.max.y)) {
    return corrupt;
  }
  if (raster.order > kMaxGridOrder) {
    return Status::DataLoss("implausible raster grid order " +
                            std::to_string(raster.order))
        .WithFile(path);
  }
  if (!r.ReadF64(&grid.domain.min.x) || !r.ReadF64(&grid.domain.min.y) ||
      !r.ReadF64(&grid.domain.max.x) || !r.ReadF64(&grid.domain.max.y)) {
    return corrupt;
  }
  if (!r.ReadU32(&grid.columns) || !r.ReadU32(&grid.rows)) return corrupt;
  if (grid.columns == 0 || grid.rows == 0 ||
      static_cast<uint64_t>(grid.columns) * grid.rows > (1u << 24)) {
    return Status::DataLoss("implausible grid shape").WithFile(path);
  }
  grid.x_bounds.resize(static_cast<size_t>(grid.columns) + 1);
  for (double& b : grid.x_bounds) {
    if (!r.ReadF64(&b)) return corrupt;
  }
  grid.y_bounds.resize(static_cast<size_t>(grid.columns) * (grid.rows + 1));
  for (double& b : grid.y_bounds) {
    if (!r.ReadF64(&b)) return corrupt;
  }
  if (!std::is_sorted(grid.x_bounds.begin(), grid.x_bounds.end())) {
    return Status::DataLoss("column boundaries not sorted").WithFile(path);
  }
  for (uint32_t c = 0; c < grid.columns; ++c) {
    const double* yb =
        grid.y_bounds.data() + static_cast<size_t>(c) * (grid.rows + 1);
    if (!std::is_sorted(yb, yb + grid.rows + 1)) {
      return Status::DataLoss("row boundaries not sorted").WithFile(path);
    }
  }
  uint32_t tile_count = 0;
  if (!r.ReadU32(&tile_count)) return corrupt;
  if (tile_count != grid.Tiles()) {
    return Status::DataLoss("tile table does not match the grid shape")
        .WithFile(path);
  }
  set.tiles_.resize(tile_count);
  for (ShardTileInfo& info : set.tiles_) {
    if (!r.ReadU64(&info.object_count) || !r.ReadU64(&info.units) ||
        !r.ReadU64(&info.file_bytes)) {
      return corrupt;
    }
  }
  if (r.off != map.Size()) {
    return Status::DataLoss("trailing bytes after the tile table")
        .WithFile(path);
  }
  *out = std::move(set);
  return Status::Ok();
}

bool operator==(const ShardRasterGrid& a, const ShardRasterGrid& b) {
  return a.order == b.order &&
         std::memcmp(&a.dataspace, &b.dataspace, sizeof(Box)) == 0;
}

uint64_t ShardSet::TotalShardBytes() const {
  uint64_t total = 0;
  for (const ShardTileInfo& info : tiles_) total += info.file_bytes;
  return total;
}

std::string ShardSet::TilePath(uint32_t tile) const {
  return PathJoin(dir_, TileFileName(tile));
}

Status ShardSet::LoadTile(uint32_t t, LoadedShard* out) const {
  STJ_CHECK(t < Tiles());
  const std::string path = TilePath(t);
  LoadedShard shard;
  shard.tile = t;
  Status st = MappedFile::Open(path, &shard.map);
  if (!st.ok()) return st;
  const uint8_t* data = shard.map.Data();
  const size_t size = shard.map.Size();

  ShardLayout layout;
  st = ParseShardLayout(data, size, path, &layout);
  if (!st.ok()) return st;
  if (layout.tile_id != t) {
    return Status::DataLoss("shard names tile " +
                            std::to_string(layout.tile_id) + ", expected " +
                            std::to_string(t))
        .WithFile(path);
  }
  if (layout.object_count != tiles_[t].object_count) {
    return Status::DataLoss("shard object count disagrees with the manifest")
        .WithFile(path);
  }
  st = CheckSegmentShapes(layout, data, path);
  if (!st.ok()) return st;

  const uint64_t n = layout.object_count;
  const SegmentEntry& ids_seg = layout.segments[shard::kObjectIds];
  const SegmentEntry& index_seg = layout.segments[shard::kGeometryIndex];
  const SegmentEntry& blob_seg = layout.segments[shard::kGeometryBlob];

  shard.ids.resize(n);
  std::memcpy(shard.ids.data(), data + ids_seg.offset, ids_seg.bytes);

  const uint64_t* geom_index =
      reinterpret_cast<const uint64_t*>(data + index_seg.offset);
  if (geom_index[0] != 0 || geom_index[n] != blob_seg.bytes) {
    return Status::DataLoss("geometry index does not span the blob")
        .WithFile(path);
  }
  shard.objects.resize(n);
  shard.mbrs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (geom_index[i] > geom_index[i + 1]) {
      return Status::DataLoss("geometry index not monotone at record " +
                              std::to_string(i))
          .WithFile(path);
    }
    ByteReader r{data + blob_seg.offset + geom_index[i],
                 static_cast<size_t>(geom_index[i + 1] - geom_index[i]), 0};
    if (!ParseObjectGeometry(&r, &shard.objects[i]) || r.off != r.size) {
      return Status::DataLoss("malformed geometry record " +
                              std::to_string(i))
          .WithFile(path)
          .WithOffset(blob_seg.offset + geom_index[i]);
    }
    shard.mbrs.push_back(shard.objects[i].geometry.Bounds());
  }
  // The ids, the geometry index and the blob are never read again: give
  // their pages back rather than keep them resident beside the parsed copy.
  // resident_bytes still counts the whole mapping.
  shard.map.DropPages(ids_seg.offset,
                      blob_seg.offset + blob_seg.bytes - ids_seg.offset);

  // The APRIL arenas stay in the mapping: FromSpans aims the store straight
  // at the page-aligned segments, so nothing below is copied or faulted
  // until the filter touches it.
  CompressedStoreSpans spans;
  spans.headers = reinterpret_cast<const IntervalBlockHeader*>(
      data + layout.segments[shard::kAprilHeaders].offset);
  spans.bytes = data + layout.segments[shard::kAprilBytes].offset;
  spans.hdr_begin = reinterpret_cast<const uint64_t*>(
      data + layout.segments[shard::kAprilHdrBegin].offset);
  spans.p_hdr_begin = reinterpret_cast<const uint64_t*>(
      data + layout.segments[shard::kAprilPHdrBegin].offset);
  spans.byte_begin = reinterpret_cast<const uint64_t*>(
      data + layout.segments[shard::kAprilByteBegin].offset);
  spans.p_byte_begin = reinterpret_cast<const uint64_t*>(
      data + layout.segments[shard::kAprilPByteBegin].offset);
  spans.c_intervals = reinterpret_cast<const uint64_t*>(
      data + layout.segments[shard::kAprilCIntervals].offset);
  spans.p_intervals = reinterpret_cast<const uint64_t*>(
      data + layout.segments[shard::kAprilPIntervals].offset);
  spans.usable = data + layout.segments[shard::kAprilUsable].offset;
  // Aimed at, not read: each sum pages in when its record is decoded.
  spans.record_fnv = reinterpret_cast<const uint64_t*>(
      data + layout.segments[shard::kAprilRecordFnv].offset);
  spans.count = n;
  shard.cstore = CompressedAprilStore::FromSpans(spans);

  shard.eager_bytes =
      kShardHeaderBytes + shard::kNumSegments * kSegmentEntryBytes +
      ids_seg.bytes + index_seg.bytes + blob_seg.bytes +
      // The offset tables and flags are read by the shape checks above.
      (n + 1) * 16 + n * 32 + n;
  shard.resident_bytes = shard.map.Size() + ids_seg.bytes + blob_seg.bytes +
                         shard.mbrs.size() * sizeof(Box);
  *out = std::move(shard);
  return Status::Ok();
}

Status ValidateShardSet(const std::string& dir, ShardCheckReport* report) {
  ShardCheckReport local;
  const auto issue = [&local](uint32_t tile, const std::string& what) {
    if (local.issues.size() < kMaxIssues) {
      local.issues.push_back("tile " + std::to_string(tile) + ": " + what);
    } else {
      ++local.issues_dropped;
    }
  };

  ShardSet set;
  Status st = ShardSet::Open(dir, &set);
  if (!st.ok()) return st;
  local.tiles = set.Tiles();

  for (uint32_t t = 0; t < set.Tiles(); ++t) {
    const std::string path = set.TilePath(t);
    bool corrupt = false;
    MappedFile map;
    Status tile_st = MappedFile::Open(path, &map);
    if (!tile_st.ok()) {
      issue(t, tile_st.ToString());
      ++local.tiles_corrupt;
      continue;
    }
    if (map.Size() != set.Tile(t).file_bytes) {
      issue(t, "file holds " + std::to_string(map.Size()) +
                   " bytes, manifest says " +
                   std::to_string(set.Tile(t).file_bytes));
      corrupt = true;
    }
    ShardLayout layout;
    tile_st = ParseShardLayout(map.Data(), map.Size(), path, &layout);
    if (tile_st.ok() && layout.tile_id != t) {
      tile_st = Status::DataLoss("shard names tile " +
                                 std::to_string(layout.tile_id))
                    .WithFile(path);
    }
    if (tile_st.ok() && layout.object_count != set.Tile(t).object_count) {
      tile_st =
          Status::DataLoss("shard object count disagrees with the manifest")
              .WithFile(path);
    }
    if (tile_st.ok()) {
      tile_st = CheckSegmentShapes(layout, map.Data(), path);
    }
    if (!tile_st.ok()) {
      issue(t, tile_st.ToString());
      ++local.tiles_corrupt;
      continue;
    }
    // The full payload audit the join path skips: every segment's bytes
    // are read and checksummed.
    for (uint32_t kind = 1; kind <= shard::kNumSegments; ++kind) {
      const SegmentEntry& e = layout.segments[kind];
      const uint64_t fnv = Fnv1a64(map.Data() + e.offset, e.bytes);
      ++local.segments_checked;
      local.bytes_checked += e.bytes;
      if (fnv != e.checksum) {
        issue(t, "segment " + std::to_string(kind) + " checksum mismatch");
        corrupt = true;
      }
    }
    if (corrupt) ++local.tiles_corrupt;
  }
  *report = local;
  return Status::Ok();
}

bool ResolveShardSetDir(const std::string& path, std::string* dir) {
  const auto is_readable = [](const std::string& p) {
    std::FILE* f = std::fopen(p.c_str(), "rb");
    if (f == nullptr) return false;
    std::fclose(f);
    return true;
  };
  if (is_readable(PathJoin(path, kManifestName))) {
    *dir = path;
    return true;
  }
  const std::string suffix = kManifestName;
  if (path.size() >= suffix.size() &&
      path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0 &&
      is_readable(path)) {
    *dir = path.size() == suffix.size()
               ? std::string(".")
               : path.substr(0, path.size() - suffix.size() - 1);
    if (dir->empty()) *dir = "/";
    return true;
  }
  return false;
}

}  // namespace stj
