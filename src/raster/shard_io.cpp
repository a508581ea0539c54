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

/// One span of a file: \p bytes of \p data at byte \p offset.
struct FilePiece {
  uint64_t offset = 0;
  const void* data = nullptr;
  uint64_t bytes = 0;
};

/// Writes \p count pieces, in ascending offset order, to a new file at
/// \p path; the gaps between them are zero-filled.
Status WritePieces(const std::string& path, const FilePiece* pieces,
                   size_t count) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open for writing").WithFile(path);
  }
  static constexpr uint8_t kZeros[shard::kPageAlign] = {};
  uint64_t at = 0;
  bool ok = true;
  for (size_t i = 0; i < count && ok; ++i) {
    while (ok && at < pieces[i].offset) {
      const size_t gap =
          std::min<uint64_t>(pieces[i].offset - at, sizeof(kZeros));
      ok = std::fwrite(kZeros, 1, gap, f) == gap;
      at += gap;
    }
    if (ok && pieces[i].bytes != 0) {
      ok = std::fwrite(pieces[i].data, 1, pieces[i].bytes, f) ==
           pieces[i].bytes;
    }
    at += pieces[i].bytes;
  }
  ok = std::fflush(f) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  return ok ? Status::Ok() : Status::IoError("short write").WithFile(path);
}

/// Bytes AppendObjectGeometry writes for \p o.
size_t GeometryBytes(const SpatialObject& o) {
  size_t bytes = 8 + 4 + 16 * o.geometry.Outer().Size();
  for (const Ring& hole : o.geometry.Holes()) bytes += 4 + 16 * hole.Size();
  return bytes;
}

/// Serialises one object's geometry: u32 id, u32 ring count, then per ring
/// a u32 vertex count and the (x, y) doubles. Unaligned by design — the
/// blob is deserialised (memcpy) on load, never cast.
void AppendObjectGeometry(std::vector<uint8_t>* out, const SpatialObject& o) {
  AppendU32(out, o.id);
  AppendU32(out, static_cast<uint32_t>(o.geometry.RingCount()));
  const auto append_ring = [out](const Ring& ring) {
    AppendU32(out, static_cast<uint32_t>(ring.Size()));
    for (const Point& p : ring.Vertices()) {
      AppendF64(out, p.x);
      AppendF64(out, p.y);
    }
  };
  append_ring(o.geometry.Outer());
  for (const Ring& hole : o.geometry.Holes()) append_ring(hole);
}

bool ParseObjectGeometry(ByteReader* r, SpatialObject* out) {
  uint32_t id = 0;
  uint32_t ring_count = 0;
  if (!r->ReadU32(&id) || !r->ReadU32(&ring_count)) return false;
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
    std::vector<Point> vertices;
    vertices.reserve(vertex_count);
    for (uint32_t v = 0; v < vertex_count; ++v) {
      Point p;
      if (!r->ReadF64(&p.x) || !r->ReadF64(&p.y)) return false;
      vertices.push_back(p);
    }
    rings.emplace_back(std::move(vertices));
  }
  Ring outer = std::move(rings.front());
  rings.erase(rings.begin());
  out->id = id;
  out->geometry = Polygon(std::move(outer), std::move(rings));
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

/// Formats tile \p t — the \p n objects \p ids names — and streams its
/// shard file to \p path: header, segment table, then each segment at its
/// page-aligned offset, straight from the buffers that hold it.
/// \p file_bytes receives the file's size.
Status WriteTileShard(const std::string& path, uint32_t t, const uint32_t* ids,
                      uint64_t n, const std::vector<SpatialObject>& objects,
                      const CompressedAprilStore& store,
                      uint64_t* file_bytes) {
  // Eager segments: global ids and the serialised geometry, the blob
  // reserved at its exact size.
  size_t blob_bytes = 0;
  for (uint64_t i = 0; i < n; ++i) blob_bytes += GeometryBytes(objects[ids[i]]);
  std::vector<uint8_t> geom_blob;
  geom_blob.reserve(blob_bytes);
  std::vector<uint8_t> geom_index;
  geom_index.reserve((n + 1) * 8);
  AppendU64(&geom_index, 0);
  for (uint64_t i = 0; i < n; ++i) {
    AppendObjectGeometry(&geom_blob, objects[ids[i]]);
    AppendU64(&geom_index, geom_blob.size());
  }

  // APRIL slice: verbatim record copies, so the per-tile arenas are
  // byte-identical to the dataset records they came from.
  CompressedAprilStore slice;
  for (uint64_t i = 0; i < n; ++i) slice.AppendRecordFrom(store, ids[i]);
  const CompressedStoreSpans& s = slice.Spans();
  std::vector<uint64_t> record_fnv(n);
  for (uint64_t i = 0; i < n; ++i) record_fnv[i] = slice.RecordChecksum(i);

  struct Payload {
    uint32_t kind;
    const void* data;
    uint64_t bytes;
  };
  const Payload payloads[shard::kNumSegments] = {
      {shard::kObjectIds, ids, n * 4},
      {shard::kGeometryIndex, geom_index.data(), geom_index.size()},
      {shard::kGeometryBlob, geom_blob.data(), geom_blob.size()},
      {shard::kAprilHeaders, s.headers,
       s.hdr_begin[n] * sizeof(IntervalBlockHeader)},
      {shard::kAprilBytes, s.bytes, s.byte_begin[n]},
      {shard::kAprilHdrBegin, s.hdr_begin, (n + 1) * 8},
      {shard::kAprilPHdrBegin, s.p_hdr_begin, n * 8},
      {shard::kAprilByteBegin, s.byte_begin, (n + 1) * 8},
      {shard::kAprilPByteBegin, s.p_byte_begin, n * 8},
      {shard::kAprilCIntervals, s.c_intervals, n * 8},
      {shard::kAprilPIntervals, s.p_intervals, n * 8},
      {shard::kAprilUsable, s.usable, n},
      {shard::kAprilRecordFnv, record_fnv.data(), n * 8},
  };

  // Lay segments out page-aligned and serialise the table behind the
  // header; the file is then the header followed by the segments.
  const size_t table_bytes = shard::kNumSegments * kSegmentEntryBytes;
  std::vector<uint8_t> head;
  head.reserve(kShardHeaderBytes + table_bytes);
  FilePiece pieces[1 + shard::kNumSegments];
  std::vector<uint8_t> table;
  table.reserve(table_bytes);
  size_t cursor = kShardHeaderBytes + table_bytes;
  for (uint32_t i = 0; i < shard::kNumSegments; ++i) {
    cursor = AlignUp(cursor, shard::kPageAlign);
    pieces[1 + i] = FilePiece{cursor, payloads[i].data, payloads[i].bytes};
    AppendU32(&table, payloads[i].kind);
    AppendU32(&table, 0);
    AppendU64(&table, cursor);
    AppendU64(&table, payloads[i].bytes);
    AppendU64(&table, Fnv1a64(payloads[i].data, payloads[i].bytes));
    cursor += payloads[i].bytes;
  }
  AppendRaw(&head, kShardMagic, 4);
  AppendU32(&head, shard::kVersion);
  AppendU64(&head, t);
  AppendU64(&head, n);
  AppendU32(&head, shard::kNumSegments);
  AppendU32(&head, 0);
  AppendU64(&head, Fnv1a64(table.data(), table.size()));
  AppendRaw(&head, table.data(), table.size());
  pieces[0] = FilePiece{0, head.data(), head.size()};
  *file_bytes = cursor;
  return WritePieces(path, pieces, 1 + shard::kNumSegments);
}

}  // namespace

Status WriteShardSet(const std::string& dir, const TileGrid& grid,
                     const std::vector<uint32_t>& tile_begin,
                     const std::vector<uint32_t>& entries,
                     const std::vector<uint64_t>& tile_units,
                     const std::vector<SpatialObject>& objects,
                     const CompressedAprilStore& store,
                     ShardWriteStats* stats, unsigned num_threads,
                     const RasterGrid* raster_grid) {
  const uint32_t num_tiles = grid.Tiles();
  STJ_CHECK_MSG(store.Count() == objects.size(),
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
  // stj-analyzer: allow(scope-checkin) the writer takes no ExecContext.
  internal::RunWorkers(std::min(threads, num_tiles), [&](unsigned) {
    for (uint32_t t = next.fetch_add(1); t < num_tiles; t = next.fetch_add(1)) {
      const uint64_t n = tile_begin[t + 1] - tile_begin[t];
      uint64_t file_bytes = 0;
      tile_status[t] =
          WriteTileShard(PathJoin(dir, TileFileName(t)), t,
                         entries.data() + tile_begin[t], n, objects, store,
                         &file_bytes);
      infos[t] = ShardTileInfo{n, tile_units[t], file_bytes};
    }
  });
  ShardWriteStats local;
  for (uint32_t t = 0; t < num_tiles; ++t) {
    if (!tile_status[t].ok()) return tile_status[t];
    local.bytes_written += infos[t].file_bytes;
  }
  local.tiles = num_tiles;

  // Manifest last: its presence marks a complete shard set.
  std::vector<uint8_t> payload;
  AppendU64(&payload, objects.size());
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
  const FilePiece piece{0, manifest.data(), manifest.size()};
  Status st = WritePieces(PathJoin(dir, kManifestName), &piece, 1);
  if (!st.ok()) return st;
  local.bytes_written += manifest.size();

  if (stats != nullptr) *stats = local;
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
