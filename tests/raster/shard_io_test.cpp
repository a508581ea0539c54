#include "src/raster/shard_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/datasets/scenarios.h"
#include "src/join/partitioner.h"
#include "src/util/mmap_file.h"
#include "tests/robustness/corrupter.h"
#include "tests/test_support.h"

namespace stj {
namespace {

// Encode a flat approximation set into the blocked codec (corrupt entries
// stay placeholders) — the form the shard writer persists.
CompressedAprilStore Compress(const std::vector<AprilApproximation>& april) {
  CompressedAprilStore cstore;
  for (const AprilApproximation& a : april) {
    if (!a.usable) {
      cstore.AppendCorruptPlaceholder();
      continue;
    }
    const AprilView view(a);
    cstore.AppendEncoded(view.conservative, view.progressive);
  }
  return cstore;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::vector<uint8_t> data;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return data;
  std::fseek(f, 0, SEEK_END);
  data.resize(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  if (!data.empty() && std::fread(data.data(), 1, data.size(), f) == 0) {
    data.clear();
  }
  std::fclose(f);
  return data;
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& data) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!data.empty()) {
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  }
  std::fclose(f);
}

class ShardIoTest : public ::testing::Test {
 protected:
  ShardIoTest() {
    ScenarioOptions options;
    options.scale = 0.05;
    options.grid_order = 10;
    options.run_join = false;
    scenario_ = BuildScenario("OLE-OPE", options);
    cstore_ = Compress(scenario_.r_april);

    const std::vector<Box> mbrs = scenario_.r.Mbrs();
    std::vector<uint64_t> units(mbrs.size());
    for (size_t i = 0; i < units.size(); ++i) {
      units[i] = scenario_.r.objects[i].geometry.VertexCount();
    }
    PartitionOptions poptions;
    poptions.target_tiles = 4;
    partition_ = BuildCostBalancedPartition(mbrs, units, poptions);
  }

  ~ShardIoTest() override {
    std::error_code ignored;
    for (const std::string& dir : dirs_) {
      std::filesystem::remove_all(dir, ignored);
    }
  }

  // A scratch directory of this test (test::TempPath), removed afterwards.
  std::string Dir(const std::string& name) {
    dirs_.push_back(test::TempPath("shard_io_" + name));
    return dirs_.back();
  }

  Status Write(const std::string& dir, ShardWriteStats* stats = nullptr,
               unsigned threads = 0) {
    return WriteShardSet(dir, partition_.grid, partition_.tile_begin,
                         partition_.entries, partition_.tile_units,
                         scenario_.r.objects, cstore_, stats, threads);
  }

  ScenarioData scenario_;
  CompressedAprilStore cstore_;
  TilePartition partition_;
  std::vector<std::string> dirs_;
};

TEST_F(ShardIoTest, RoundTripPreservesEveryTileSlice) {
  const std::string dir = Dir("roundtrip");
  ShardWriteStats wstats;
  ASSERT_TRUE(Write(dir, &wstats).ok());
  EXPECT_EQ(wstats.tiles, partition_.Tiles());
  EXPECT_GT(wstats.bytes_written, 0u);

  ShardSet set;
  ASSERT_TRUE(ShardSet::Open(dir, &set).ok());
  ASSERT_EQ(set.Tiles(), partition_.Tiles());
  EXPECT_TRUE(set.Grid() == partition_.grid);
  EXPECT_EQ(set.TotalObjects(), scenario_.r.objects.size());

  for (uint32_t t = 0; t < set.Tiles(); ++t) {
    LoadedShard shard;
    ASSERT_TRUE(set.LoadTile(t, &shard).ok()) << "tile " << t;
    EXPECT_EQ(shard.tile, t);

    // Ids reproduce the partitioner's CSR slice exactly.
    const std::vector<uint32_t> expected_ids(
        partition_.entries.begin() + partition_.tile_begin[t],
        partition_.entries.begin() + partition_.tile_begin[t + 1]);
    ASSERT_EQ(shard.ids, expected_ids);

    // Geometry round-trips: ids, ring structure, vertices, MBRs.
    ASSERT_EQ(shard.objects.size(), expected_ids.size());
    ASSERT_EQ(shard.mbrs.size(), expected_ids.size());
    CompressedAprilStore expected_slice;
    for (size_t k = 0; k < expected_ids.size(); ++k) {
      const SpatialObject& orig = scenario_.r.objects[expected_ids[k]];
      const SpatialObject& got = shard.objects[k];
      ASSERT_EQ(got.id, orig.id);
      ASSERT_EQ(got.geometry.RingCount(), orig.geometry.RingCount());
      ASSERT_EQ(got.geometry.VertexCount(), orig.geometry.VertexCount());
      EXPECT_EQ(got.geometry.Bounds(), orig.geometry.Bounds());
      EXPECT_EQ(shard.mbrs[k], orig.geometry.Bounds());
      expected_slice.AppendRecordFrom(cstore_, expected_ids[k]);
    }

    // The mapped APRIL slice is byte-identical to the writer's input
    // (records are copied verbatim, never re-encoded).
    EXPECT_TRUE(shard.cstore == expected_slice) << "tile " << t;
  }
}

TEST_F(ShardIoTest, FilesAreByteIdenticalAtEveryWriterThreadCount) {
  // Workers write the tiles in whatever order they claim them; no file's
  // bytes, the manifest's included, may depend on that. Twelve tiles give
  // every worker several.
  std::vector<uint64_t> units(scenario_.r.objects.size());
  for (size_t i = 0; i < units.size(); ++i) {
    units[i] = scenario_.r.objects[i].geometry.VertexCount();
  }
  PartitionOptions poptions;
  poptions.target_tiles = 12;
  partition_ = BuildCostBalancedPartition(scenario_.r.Mbrs(), units, poptions);
  ASSERT_GE(partition_.Tiles(), 8u);

  const std::string serial = Dir("threads_1");
  ShardWriteStats serial_stats;
  ASSERT_TRUE(Write(serial, &serial_stats, 1).ok());
  ShardSet serial_set;
  ASSERT_TRUE(ShardSet::Open(serial, &serial_set).ok());
  for (const unsigned threads : {4u, test::Oversubscribed()}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const std::string dir = Dir("threads_" + std::to_string(threads));
    ShardWriteStats stats;
    ASSERT_TRUE(Write(dir, &stats, threads).ok());
    EXPECT_EQ(stats.tiles, serial_stats.tiles);
    EXPECT_EQ(stats.bytes_written, serial_stats.bytes_written);
    ShardSet set;
    ASSERT_TRUE(ShardSet::Open(dir, &set).ok());
    EXPECT_EQ(ReadFile(dir + "/manifest.stj"),
              ReadFile(serial + "/manifest.stj"));
    for (uint32_t t = 0; t < set.Tiles(); ++t) {
      const std::vector<uint8_t> file = ReadFile(set.TilePath(t));
      ASSERT_FALSE(file.empty()) << "tile " << t;
      EXPECT_EQ(file, ReadFile(serial_set.TilePath(t))) << "tile " << t;
    }
  }
}

TEST_F(ShardIoTest, WriteFailureReportsTheLowestFailingTile) {
  // Tiles 1 and 3 cannot be created (a directory holds each name). Whatever
  // the thread count, the error names tile 1 and no manifest is written.
  ASSERT_GE(partition_.Tiles(), 4u);
  for (const unsigned threads : {1u, 4u, test::Oversubscribed()}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const std::string dir = Dir("blocked_" + std::to_string(threads));
    std::filesystem::create_directories(dir + "/tile_000001.shard");
    std::filesystem::create_directories(dir + "/tile_000003.shard");
    const Status status = Write(dir, nullptr, threads);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kIoError);
    EXPECT_NE(status.ToString().find("tile_000001.shard"), std::string::npos)
        << status.ToString();
    EXPECT_FALSE(std::filesystem::exists(dir + "/manifest.stj"));
  }
}

TEST_F(ShardIoTest, LoadedAprilIsZeroCopyOffTheMapping) {
  const std::string dir = Dir("zerocopy");
  ASSERT_TRUE(Write(dir).ok());
  ShardSet set;
  ASSERT_TRUE(ShardSet::Open(dir, &set).ok());
  LoadedShard shard;
  ASSERT_TRUE(set.LoadTile(0, &shard).ok());
  ASSERT_TRUE(shard.cstore.IsMapped());

  const uint8_t* base = shard.map.Data();
  const uint8_t* end = base + shard.map.Size();
  const CompressedStoreSpans& spans = shard.cstore.Spans();
  const auto inside = [&](const void* p) {
    return reinterpret_cast<const uint8_t*>(p) >= base &&
           reinterpret_cast<const uint8_t*>(p) < end;
  };
  ASSERT_GT(spans.count, 0u);
  EXPECT_TRUE(inside(spans.headers));
  EXPECT_TRUE(inside(spans.hdr_begin));
  EXPECT_TRUE(inside(spans.byte_begin));
  EXPECT_TRUE(inside(spans.usable));
  if (spans.byte_begin[spans.count] > 0) {
    EXPECT_TRUE(inside(spans.bytes));
  }

  // Accounting sanity: the mapping dominates resident_bytes, and the eager
  // part never exceeds the file.
  EXPECT_GE(shard.resident_bytes, shard.map.Size());
  EXPECT_GT(shard.eager_bytes, 0u);
  EXPECT_LE(shard.eager_bytes, shard.map.Size());
}

TEST_F(ShardIoTest, ValidateCleanSetReportsEverySegment) {
  const std::string dir = Dir("validate_clean");
  ASSERT_TRUE(Write(dir).ok());
  ShardCheckReport report;
  ASSERT_TRUE(ValidateShardSet(dir, &report).ok());
  EXPECT_FALSE(report.Corrupt());
  EXPECT_EQ(report.tiles, partition_.Tiles());
  EXPECT_EQ(report.tiles_corrupt, 0u);
  EXPECT_EQ(report.segments_checked,
            uint64_t{shard::kNumSegments} * partition_.Tiles());
  EXPECT_TRUE(report.issues.empty());
}

TEST_F(ShardIoTest, PayloadCorruptionCaughtByValidateNotByLoad) {
  const std::string dir = Dir("payload_corrupt");
  ASSERT_TRUE(Write(dir).ok());
  ShardSet set;
  ASSERT_TRUE(ShardSet::Open(dir, &set).ok());

  // Flip one byte inside the APRIL payload arena of tile 0. The structural
  // layer (header, table, CSR offsets) is untouched, so the lazy join path
  // must still load the tile — checksumming payloads at load would fault
  // every page in — while the full audit must flag it.
  const std::string path = set.TilePath(0);
  std::vector<uint8_t> file = ReadFile(path);
  ASSERT_FALSE(file.empty());
  uint64_t offset = 0, bytes = 0;
  ASSERT_TRUE(
      test::FindShardSegment(file.data(), shard::kAprilBytes, &offset, &bytes));
  ASSERT_GT(bytes, 0u) << "tile 0 has an empty codec arena; pick a bigger "
                          "scenario scale";
  file[offset] ^= 0xFF;
  WriteFile(path, file);

  LoadedShard shard;
  EXPECT_TRUE(set.LoadTile(0, &shard).ok());

  ShardCheckReport report;
  ASSERT_TRUE(ValidateShardSet(dir, &report).ok());
  EXPECT_TRUE(report.Corrupt());
  EXPECT_EQ(report.tiles_corrupt, 1u);
  ASSERT_FALSE(report.issues.empty());
}

TEST_F(ShardIoTest, ManifestRecordsTheRasterGrid) {
  // A prepared side records the grid its lists were built on, bit for bit;
  // a set written without one records none.
  const RasterGrid grid(Box::Of(Point{-1.5, 2}, Point{7, 9.25}), 11);
  const std::string with = Dir("with_grid");
  ASSERT_TRUE(WriteShardSet(with, partition_.grid, partition_.tile_begin,
                            partition_.entries, partition_.tile_units,
                            scenario_.r.objects, cstore_, nullptr, 0, &grid)
                  .ok());
  ShardSet set;
  ASSERT_TRUE(ShardSet::Open(with, &set).ok());
  EXPECT_TRUE(set.RasterGridRecord() ==
              (ShardRasterGrid{grid.Order(), grid.Dataspace()}));
  EXPECT_FALSE(set.RasterGridRecord() ==
               (ShardRasterGrid{grid.Order() - 1, grid.Dataspace()}));

  const std::string without = Dir("without_grid");
  ASSERT_TRUE(Write(without).ok());
  ASSERT_TRUE(ShardSet::Open(without, &set).ok());
  EXPECT_EQ(set.RasterGridRecord().order, 0u);
}

TEST_F(ShardIoTest, OtherVersionsAreDataLoss) {
  // Version 1 sets (no grid, no record sums) are refused, not half-read: the
  // manifest's version and each shard's version are checked.
  const std::string dir = Dir("version_1");
  ASSERT_TRUE(Write(dir).ok());
  ShardSet set;
  ASSERT_TRUE(ShardSet::Open(dir, &set).ok());
  const uint32_t old_version = 1;
  std::vector<uint8_t> tile = ReadFile(set.TilePath(0));
  std::memcpy(tile.data() + 4, &old_version, sizeof old_version);
  WriteFile(set.TilePath(0), tile);
  LoadedShard shard;
  Status status = set.LoadTile(0, &shard);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();

  std::vector<uint8_t> manifest = ReadFile(dir + "/manifest.stj");
  std::memcpy(manifest.data() + 4, &old_version, sizeof old_version);
  WriteFile(dir + "/manifest.stj", manifest);
  status = ShardSet::Open(dir, &set);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.ToString().find("version 1"), std::string::npos);
}

TEST_F(ShardIoTest, RecordSumsGateDecodingOfMappedRecords) {
  const std::string dir = Dir("record_sums");
  ASSERT_TRUE(Write(dir).ok());
  ShardSet set;
  ASSERT_TRUE(ShardSet::Open(dir, &set).ok());
  std::vector<CellInterval> c;
  std::vector<CellInterval> p;
  // Each stored sum is its dataset record's: a record copied into several
  // tiles hashes the same in each.
  for (uint32_t t = 0; t < set.Tiles(); ++t) {
    LoadedShard shard;
    ASSERT_TRUE(set.LoadTile(t, &shard).ok());
    const CompressedStoreSpans& spans = shard.cstore.Spans();
    ASSERT_NE(spans.record_fnv, nullptr);
    for (size_t k = 0; k < shard.ids.size(); ++k) {
      EXPECT_EQ(spans.record_fnv[k], cstore_.RecordChecksum(shard.ids[k]))
          << "tile " << t << " record " << k;
      EXPECT_TRUE(shard.cstore.DecodeRecord(k, &c, &p));
    }
  }
  // An owning store has no sums and decodes without them.
  EXPECT_EQ(cstore_.Spans().record_fnv, nullptr);

  // Flip the first payload byte of one record of tile 0: the load succeeds
  // (sums are not read at load), and that record alone no longer decodes.
  std::vector<uint8_t> file = ReadFile(set.TilePath(0));
  uint64_t begin_at = 0, begin_bytes = 0, payload_at = 0, payload_bytes = 0;
  ASSERT_TRUE(test::FindShardSegment(file.data(), shard::kAprilByteBegin,
                                     &begin_at, &begin_bytes));
  ASSERT_TRUE(test::FindShardSegment(file.data(), shard::kAprilBytes,
                                     &payload_at, &payload_bytes));
  const uint64_t n = set.Tile(0).object_count;
  const uint64_t* byte_begin =
      reinterpret_cast<const uint64_t*>(file.data() + begin_at);
  uint64_t victim = n;
  for (uint64_t k = 0; k < n && victim == n; ++k) {
    if (byte_begin[k + 1] > byte_begin[k]) victim = k;
  }
  ASSERT_LT(victim, n);
  file[payload_at + byte_begin[victim]] ^= 0x01;
  WriteFile(set.TilePath(0), file);
  LoadedShard shard;
  ASSERT_TRUE(set.LoadTile(0, &shard).ok());
  for (uint64_t k = 0; k < n; ++k) {
    EXPECT_EQ(shard.cstore.DecodeRecord(k, &c, &p), k != victim) << k;
  }
}

TEST_F(ShardIoTest, TableCorruptionFailsLoadAndValidate) {
  const std::string dir = Dir("table_corrupt");
  ASSERT_TRUE(Write(dir).ok());
  ShardSet set;
  ASSERT_TRUE(ShardSet::Open(dir, &set).ok());

  const std::string path = set.TilePath(0);
  std::vector<uint8_t> file = ReadFile(path);
  ASSERT_GT(file.size(), 48u);
  file[44] ^= 0x01;  // inside the first segment-table entry
  WriteFile(path, file);

  LoadedShard shard;
  const Status status = set.LoadTile(0, &shard);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);

  ShardCheckReport report;
  ASSERT_TRUE(ValidateShardSet(dir, &report).ok());
  EXPECT_TRUE(report.Corrupt());
}

TEST_F(ShardIoTest, TruncatedShardFailsLoad) {
  const std::string dir = Dir("truncated");
  ASSERT_TRUE(Write(dir).ok());
  ShardSet set;
  ASSERT_TRUE(ShardSet::Open(dir, &set).ok());

  const std::string path = set.TilePath(0);
  std::vector<uint8_t> file = ReadFile(path);
  ASSERT_GT(file.size(), 4096u);
  file.resize(file.size() / 2);
  WriteFile(path, file);

  LoadedShard shard;
  const Status status = set.LoadTile(0, &shard);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST_F(ShardIoTest, ManifestCorruptionRejectsOpen) {
  const std::string dir = Dir("manifest_corrupt");
  ASSERT_TRUE(Write(dir).ok());
  const std::string manifest = dir + "/manifest.stj";
  std::vector<uint8_t> file = ReadFile(manifest);
  ASSERT_GT(file.size(), 32u);
  file[file.size() - 1] ^= 0x80;  // payload byte — frame checksum must trip
  WriteFile(manifest, file);

  ShardSet set;
  const Status status = ShardSet::Open(dir, &set);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST_F(ShardIoTest, MissingShardSetIsNotFound) {
  ShardSet set;
  const Status status = ShardSet::Open(Dir("does_not_exist"), &set);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(ShardIoTest, ResolveShardSetDirAcceptsDirAndManifestPath) {
  const std::string dir = Dir("resolve");
  ASSERT_TRUE(Write(dir).ok());
  std::string resolved;
  EXPECT_TRUE(ResolveShardSetDir(dir, &resolved));
  EXPECT_EQ(resolved, dir);
  EXPECT_TRUE(ResolveShardSetDir(dir + "/manifest.stj", &resolved));
  EXPECT_EQ(resolved, dir);
  EXPECT_FALSE(ResolveShardSetDir(Dir("resolve_missing"), &resolved));
}

TEST(MappedFileTest, MissingFileIsNotFound) {
  MappedFile map;
  const Status status =
      MappedFile::Open(std::string(::testing::TempDir()) + "/no_such_file",
                       &map);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace stj
