#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "src/raster/april.h"
#include "src/raster/april_compressed.h"
#include "src/raster/shard_io.h"
#include "src/topology/shard_scheduler.h"
#include "src/util/rng.h"
#include "tests/robustness/corrupter.h"
#include "tests/test_support.h"

// Exhaustive single-byte fault injection against the on-disk form of a
// dataset's APRIL lists, the shard set (src/raster/shard_io.h): every
// single-byte flip of a valid manifest or tile file that a reader reads must
// be caught — by the join's load as a kDataLoss Status, or by the aprilcheck
// audit (ValidateShardSet) — and the bytes no reader reads (the tile
// header's reserved word and the padding that page-aligns the segments)
// must change nothing. A crash, hang, or silent change anywhere in these
// sweeps is a bug.

namespace stj {
namespace {

class AprilFaultInjectionTest : public ::testing::Test {
 protected:
  AprilFaultInjectionTest() {
    Rng rng(91);
    const RasterGrid grid(Box::Of(Point{0, 0}, Point{64, 64}), 6);
    const AprilBuilder builder(&grid);
    std::vector<AprilApproximation> approximations;
    for (uint32_t i = 0; i < 6; ++i) {
      SpatialObject object;
      object.id = i;
      object.geometry = test::RandomBlob(
          &rng, Point{rng.Uniform(10, 54), rng.Uniform(10, 54)},
          rng.LogUniform(2.0, 10.0), 24, 0.3);
      approximations.push_back(builder.Build(object.geometry));
      objects_.push_back(std::move(object));
    }
    cstore_ = CompressedAprilStore::FromStore(
        AprilStore::FromApproximations(approximations));
  }

  ~AprilFaultInjectionTest() override {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  // True when the audit of the set flags it, or cannot open it.
  bool AuditFlags() const {
    ShardCheckReport report;
    const Status status = ValidateShardSet(dir_, &report);
    return !status.ok() || report.Corrupt();
  }

  // Tile 0 loads, and holds exactly the objects and lists it was written
  // from.
  void ExpectTileIntact(const ShardSet& set) const {
    LoadedShard shard;
    const Status load = set.LoadTile(0, &shard);
    ASSERT_TRUE(load.ok()) << load.ToString();
    ASSERT_EQ(shard.ids.size(), objects_.size());
    for (size_t i = 0; i < objects_.size(); ++i) {
      EXPECT_EQ(shard.ids[i], i);
      EXPECT_EQ(shard.objects[i].id, objects_[i].id);
      EXPECT_TRUE(shard.objects[i].geometry.Outer() ==
                  objects_[i].geometry.Outer())
          << "object " << i;
      EXPECT_EQ(shard.objects[i].geometry.Holes().size(),
                objects_[i].geometry.Holes().size());
    }
    EXPECT_TRUE(shard.cstore == cstore_);
  }

  std::string dir_ = test::TempPath("april_fault_injection");
  std::vector<SpatialObject> objects_;
  CompressedAprilStore cstore_;
};

TEST_F(AprilFaultInjectionTest, ByteFlipAtEveryOffsetIsDetected) {
  PartitionOptions options;
  options.target_tiles = 1;
  ASSERT_TRUE(BuildShardSet(dir_, objects_, cstore_, options).ok());
  ShardSet set;
  ASSERT_TRUE(ShardSet::Open(dir_, &set).ok());
  ASSERT_EQ(set.Tiles(), 1u);
  ASSERT_NO_FATAL_FAILURE(ExpectTileIntact(set));
  ASSERT_FALSE(AuditFlags());

  // The manifest is read whole: every flip fails the open.
  const std::string manifest_path = dir_ + "/manifest.stj";
  const std::string manifest = test::ReadFileBytes(manifest_path);
  for (size_t i = 0; i < manifest.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "manifest flip @" << i);
    test::WriteFileBytes(manifest_path, test::WithFlippedByte(manifest, i));
    ShardSet damaged;
    const Status open = ShardSet::Open(dir_, &damaged);
    ASSERT_FALSE(open.ok());
    EXPECT_EQ(open.code(), StatusCode::kDataLoss) << open.ToString();
  }
  test::WriteFileBytes(manifest_path, manifest);

  // The tile bytes a reader reads: the 40-byte header but for its reserved
  // word (bytes 28..31), the segment table, and every segment's span.
  const std::string path = set.TilePath(0);
  const std::string tile = test::ReadFileBytes(path);
  constexpr size_t kHeaderBytes = 40, kEntryBytes = 32, kReservedAt = 28;
  std::vector<bool> read(tile.size(), false);
  for (size_t i = 0; i < kHeaderBytes + shard::kNumSegments * kEntryBytes;
       ++i) {
    read[i] = i < kReservedAt || i >= kReservedAt + 4;
  }
  for (uint32_t kind = 1; kind <= shard::kNumSegments; ++kind) {
    uint64_t at = 0, bytes = 0;
    ASSERT_TRUE(test::FindShardSegment(tile.data(), kind, &at, &bytes));
    ASSERT_LE(at + bytes, tile.size());
    std::fill_n(read.begin() + static_cast<std::ptrdiff_t>(at), bytes, true);
  }

  size_t load_failures = 0;
  size_t unread = 0;
  for (size_t i = 0; i < tile.size(); ++i) {
    if (!read[i]) {
      ++unread;
      continue;
    }
    SCOPED_TRACE(::testing::Message() << "tile flip @" << i);
    test::WriteFileBytes(path, test::WithFlippedByte(tile, i));
    LoadedShard shard;
    const Status load = set.LoadTile(0, &shard);
    if (!load.ok()) {
      EXPECT_EQ(load.code(), StatusCode::kDataLoss) << load.ToString();
      ++load_failures;
    }
    EXPECT_TRUE(AuditFlags());
  }
  // Both layers were exercised: the load's structural checks and the
  // audit's checksums over what the load does not verify.
  EXPECT_GT(load_failures, 0u);
  EXPECT_LT(load_failures, tile.size() - unread);

  // The unread bytes, flipped all at once, change nothing.
  ASSERT_GT(unread, 0u);
  std::string flipped = tile;
  for (size_t i = 0; i < tile.size(); ++i) {
    if (!read[i]) flipped[i] = static_cast<char>(~flipped[i]);
  }
  test::WriteFileBytes(path, flipped);
  ASSERT_NO_FATAL_FAILURE(ExpectTileIntact(set));
  EXPECT_FALSE(AuditFlags());
}

}  // namespace
}  // namespace stj
