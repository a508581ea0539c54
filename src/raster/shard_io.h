#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/geometry/polygon.h"
#include "src/geometry/tile_grid.h"
#include "src/raster/april_compressed.h"
#include "src/raster/grid.h"
#include "src/util/exec_context.h"
#include "src/util/mmap_file.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace stj {

/// Tile-sharded, mmap-backed persistence of one dataset — the out-of-core
/// storage layer and the project's one on-disk form of a prepared dataset
/// (`stj_cli prepare` writes it, `stj_cli join` maps it). A *shard set* is a
/// directory holding one manifest plus one shard file per tile of a
/// TileGrid partition (src/join/partitioner.h computes the grid; this layer
/// only persists it).
///
/// Layout (all integers native-endian):
///
///   <dir>/manifest.stj
///     "SHDM" magic | u32 version | u64 payload_bytes | u64 fnv1a64(payload)
///     | payload. The payload carries the dataset object count, the raster
///     grid the APRIL lists were built on (u32 order, 0 = none recorded, and
///     the dataspace as four f64), the TileGrid (domain, columns, rows,
///     boundary runs) and per tile: object count, computational units,
///     shard file byte size.
///
///   <dir>/tile_NNNNNN.shard      (one per tile, NNNNNN = tile id)
///     header   "SHRD" | u32 version | u64 tile_id | u64 object_count
///              | u32 segment_count | u32 reserved | u64 table_fnv
///     table    segment_count x { u32 kind | u32 reserved | u64 offset
///              | u64 bytes | u64 fnv1a64(payload) }
///     payload  one span per segment, each offset page-aligned (4096)
///
/// Segments persist the tile's slice of the dataset: the global object
/// indices, the serialised geometry (an offset index plus a ring/vertex
/// blob — deserialised on load), the nine CSR arrays of the tile's
/// CompressedAprilStore written verbatim, and one checksum per APRIL record
/// (CompressedAprilStore::RecordChecksum). Page alignment makes every typed
/// array directly addressable in the mapping, so LoadTile serves the APRIL
/// arenas *zero-copy*: the tile's CompressedAprilStore is
/// CompressedAprilStore::FromSpans over pointers into the mapping, pages
/// fault in only when the filter actually touches a block, and evicting the
/// shard is munmap — no deserialisation on either side of the cache.
///
/// Integrity: the manifest payload and each segment carry fnv1a64
/// checksums, and the shard header checksums its own segment table. The
/// join path verifies only the structural layer it must trust (header,
/// table, array bounds/CSR tails) — checksumming segment payloads at load
/// would fault every page in and defeat laziness. Instead each APRIL record
/// is checked against its record sum when a worker decodes it: a record
/// that fails does not feed the filter, and its pairs refine (the
/// degraded mode of PipelineStats::fallback_refined). Geometry has only the
/// structural checks; a malformed geometry record fails its tile's load.
/// ValidateShardSet (the aprilcheck path) reads and verifies every payload
/// checksum, the record sums' segment included.
namespace shard {

/// Version 2 added the raster grid to the manifest and the record sums.
inline constexpr uint32_t kVersion = 2;
inline constexpr size_t kPageAlign = 4096;

/// Segment kinds of a shard file, in table order.
enum SegmentKind : uint32_t {
  kObjectIds = 1,      ///< u32[object_count] global dataset indices.
  kGeometryIndex = 2,  ///< u64[object_count+1] offsets into kGeometryBlob.
  kGeometryBlob = 3,   ///< Per object: u32 id, u32 rings, per ring u32
                       ///< vertex count + (f64 x, f64 y) run.
  kAprilHeaders = 4,   ///< IntervalBlockHeader[hdr_begin[n]].
  kAprilBytes = 5,     ///< uint8[byte_begin[n]] codec payload.
  kAprilHdrBegin = 6,  ///< u64[n+1].
  kAprilPHdrBegin = 7, ///< u64[n].
  kAprilByteBegin = 8, ///< u64[n+1].
  kAprilPByteBegin = 9,///< u64[n].
  kAprilCIntervals = 10,  ///< u64[n].
  kAprilPIntervals = 11,  ///< u64[n].
  kAprilUsable = 12,      ///< u8[n].
  kAprilRecordFnv = 13,   ///< u64[n] RecordChecksum of each record.
};
inline constexpr uint32_t kNumSegments = 13;

}  // namespace shard

/// The raster grid a shard set's APRIL lists were built on, as its manifest
/// records it. Two prepared sides can be joined only when their lists come
/// from one grid: compare with ==, which is bitwise.
struct ShardRasterGrid {
  uint32_t order = 0;  ///< 0 when the writer recorded no grid.
  Box dataspace;       ///< RasterGrid::Dataspace() of the grid.

  friend bool operator==(const ShardRasterGrid& a, const ShardRasterGrid& b);
};

/// Per-tile accounting carried by the manifest.
struct ShardTileInfo {
  uint64_t object_count = 0;
  uint64_t units = 0;       ///< Computational units (partitioner weights).
  uint64_t file_bytes = 0;  ///< Size of the tile's shard file.
};

/// Writer telemetry.
struct ShardWriteStats {
  uint32_t tiles = 0;
  uint64_t bytes_written = 0;  ///< Shard files + manifest.
};

/// What the partitioner and the tile writer know of one spilled object
/// without reading its geometry back.
struct SpilledObject {
  Box mbr;
  uint64_t offset = 0;    ///< Of the object's polygon record in the spill.
  uint64_t vertices = 0;  ///< Over all rings.
  uint32_t rings = 0;
  uint32_t id = 0;        ///< SpatialObject::id, written ahead of the record.

  /// Bytes of the polygon record: u32 ring count, then per ring a u32
  /// vertex count and its (x, y) doubles. A tile's geometry record is the
  /// u32 id followed by these bytes.
  uint64_t RecordBytes() const {
    return 4 + 4 * uint64_t{rings} + 16 * vertices;
  }
};

/// One dataset's geometry, kept out of memory for the shard writer: each
/// object's polygon record in an unnamed SpillFile on the output's
/// filesystem, and per object its SpilledObject. The tile writer copies
/// the records into the tiles' geometry blobs byte for byte, so a tile's
/// bytes do not depend on whether its objects came from memory or from a
/// streamed load.
class GeometrySpill {
 public:
  /// Opens an empty spill on the filesystem of \p dir (SpillFile::Create).
  [[nodiscard]] static Status Create(const std::string& dir,
                                     GeometrySpill* out);

  /// Spills \p objects, in order, into a new spill on the filesystem of
  /// \p dir.
  [[nodiscard]] static Status FromObjects(
      const std::string& dir, const std::vector<SpatialObject>& objects,
      GeometrySpill* out);

  /// One writer's buffer over the spill. Append serialises a polygon's
  /// record into it; about a block of records at a time is written at the
  /// spill's end, so the records of several appenders (one per loader range)
  /// interleave in the file by block while each appender's objects keep
  /// their order. One appender is used by one thread at a time.
  class Appender {
   public:
    explicit Appender(GeometrySpill* spill) : spill_(spill) {}

    /// Buffers the record of \p polygon, to be written under \p id.
    [[nodiscard]] Status Append(uint32_t id, const Polygon& polygon);
    /// Writes what is buffered; the offsets of objects() are final after it.
    [[nodiscard]] Status Flush();
    /// The appended objects, in order.
    std::vector<SpilledObject>& objects() { return objects_; }

   private:
    GeometrySpill* spill_;
    std::vector<uint8_t> buffer_;
    std::vector<SpilledObject> objects_;
    size_t unflushed_ = 0;  ///< First object whose record is in buffer_.
  };

  /// The spilled objects in dataset order; whoever spills fills it.
  std::vector<SpilledObject>& Objects() { return objects_; }
  const std::vector<SpilledObject>& Objects() const { return objects_; }

  /// Reads the records of the objects \p ids[0..count) back to back into
  /// \p buffer (resized to their total), with one read per run of records
  /// that lie back to back in the spill.
  [[nodiscard]] Status ReadRecords(const uint32_t* ids, size_t count,
                                   std::vector<uint8_t>* buffer) const;

  /// Parses one polygon record of \p bytes bytes into \p out: exactly the
  /// polygon the record was written from. False when the bytes are not one
  /// well-formed record.
  [[nodiscard]] static bool ParseRecord(const uint8_t* data, size_t bytes,
                                        Polygon* out);

 private:
  SpillFile file_;
  STJ_ATOMIC_DOC(
      "spill end; each appender's flush reserves its block with one relaxed "
      "fetch_add, and the offsets are read only after the writers joined");
  std::atomic<uint64_t> end_{0};
  std::vector<SpilledObject> objects_;
};

/// Persists one dataset as a shard set under \p dir (created if needed).
/// An existing manifest is removed before the first tile is written and
/// the new one is written last, once every tile is on disk, so a write that
/// fails midway never leaves a manifest over a mix of old and new tiles.
/// \p tile_begin/\p entries are the partitioner's CSR assignment over \p
/// grid (entries hold dataset indices; an object appears under every tile
/// its MBR overlaps), \p tile_units the per-tile unit totals, and \p store
/// the dataset's compressed APRIL storage, index-aligned with \p spill's
/// objects. Geometry records are copied from the spill and APRIL records
/// from the store byte for byte (never re-encoded), so a loaded tile record
/// is byte-identical to the dataset record it came from.
///
/// Tiles are written on \p num_threads workers (0 = hardware concurrency),
/// each streaming its file segment by segment through bounded buffers and
/// writing the header and segment table last. Every file's bytes are the
/// same at any thread count. \p exec (optional) is charged for the
/// buffers and polled per tile. On failure no manifest is written, and the
/// Status is the stop cause of a tripped \p exec, else the lowest failing
/// tile's. The manifest records \p raster_grid, the grid \p store's lists
/// were built on; a set written without one records none (order 0).
[[nodiscard]] Status WriteShardSet(const std::string& dir, const TileGrid& grid,
                     const std::vector<uint32_t>& tile_begin,
                     const std::vector<uint32_t>& entries,
                     const std::vector<uint64_t>& tile_units,
                     const GeometrySpill& spill,
                     const CompressedAprilStore& store,
                     ShardWriteStats* stats = nullptr,
                     unsigned num_threads = 0,
                     const RasterGrid* raster_grid = nullptr,
                     ExecContext* exec = nullptr);

/// Removes \p dir's manifest, if there is one, so that \p dir no longer
/// holds a shard set; its tile files stay.
[[nodiscard]] Status RemoveShardManifest(const std::string& dir);

/// One tile, resident: the mapping plus everything deserialised off it.
/// The cstore references the mapping (zero-copy) — LoadedShard must be kept
/// alive as one unit, which the scheduler's shard cache does.
struct LoadedShard {
  uint32_t tile = 0;
  MappedFile map;
  std::vector<uint32_t> ids;           ///< Global dataset indices, ascending.
  std::vector<SpatialObject> objects;  ///< Deserialised geometry, local order.
  std::vector<Box> mbrs;               ///< Local MBRs (filter input).
  /// Mapped (FromSpans) APRIL slice, record sums included.
  CompressedAprilStore cstore;
  /// Cache/budget footprint: mapped bytes plus the deserialised heap
  /// estimate. What the scheduler charges against ExecContext::TryCharge.
  size_t resident_bytes = 0;
  /// Bytes eagerly materialised at load time (header, table, ids, geometry)
  /// — the part of the file a load *must* fault in. The APRIL segments
  /// (mapped bytes beyond this) fault lazily per touched page.
  uint64_t eager_bytes = 0;
};

/// Read access to a shard set: the manifest is parsed once, tiles are
/// mapped on demand. Open() trusts only what it verifies (magic, version,
/// manifest frame checksum, grid/tile-table shape).
class ShardSet {
 public:
  /// Parses and verifies <dir>/manifest.stj.
  [[nodiscard]] static Status Open(const std::string& dir, ShardSet* out);

  const std::string& Dir() const { return dir_; }
  const TileGrid& Grid() const { return grid_; }
  /// The raster grid the manifest records (order 0 when none).
  const ShardRasterGrid& RasterGridRecord() const { return raster_; }
  uint32_t Tiles() const { return static_cast<uint32_t>(tiles_.size()); }
  uint64_t TotalObjects() const { return total_objects_; }
  const ShardTileInfo& Tile(uint32_t t) const { return tiles_[t]; }

  /// Sum of all shard file sizes — the "all resident" byte figure cache
  /// budgets are expressed against.
  [[nodiscard]] uint64_t TotalShardBytes() const;

  std::string TilePath(uint32_t tile) const;

  /// Maps tile \p t and deserialises its eager segments. Structural
  /// verification only (see file comment); kDataLoss on any mismatch.
  [[nodiscard]] Status LoadTile(uint32_t t, LoadedShard* out) const;

 private:
  std::string dir_;
  TileGrid grid_;
  ShardRasterGrid raster_;
  std::vector<ShardTileInfo> tiles_;
  uint64_t total_objects_ = 0;
};

/// aprilcheck's view of a shard set audit.
struct ShardCheckReport {
  uint32_t tiles = 0;          ///< Tiles the manifest declares.
  uint32_t tiles_corrupt = 0;  ///< Tiles with any failed check.
  uint64_t segments_checked = 0;
  uint64_t bytes_checked = 0;
  /// Human-readable findings, capped (further findings only count).
  std::vector<std::string> issues;
  uint64_t issues_dropped = 0;

  bool Corrupt() const { return tiles_corrupt != 0; }
};

/// Full integrity audit of a shard set: manifest frame, every tile's
/// header + segment table, every segment's payload checksum, and
/// cross-checks against the manifest (object counts, file sizes). Unlike
/// the join path this reads every byte. A non-ok Status means the manifest
/// itself was unreadable (structural failure); per-tile corruption is
/// reported through \p report, so one bad tile does not hide the others.
[[nodiscard]] Status ValidateShardSet(const std::string& dir, ShardCheckReport* report);

/// True when \p path names a shard set: a directory containing
/// manifest.stj (detected by opening it — no platform directory APIs), or
/// the manifest file itself. \p dir receives the shard-set directory. The
/// join command tells prepared sides from WKT files with it.
[[nodiscard]] bool ResolveShardSetDir(const std::string& path, std::string* dir);

}  // namespace stj
