// APRIL file ("APRB", version 3, blocked codec) robustness: round trips into
// both store forms, decode through the flat loader, per-record corruption
// isolation, the codec_corrupt taxonomy — records whose frame checksum
// verifies but whose blocked payload fails deep validation — and rejection
// of the retired version-1/2 layouts.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/raster/april.h"
#include "src/raster/april_compressed.h"
#include "src/raster/april_io.h"
#include "src/util/rng.h"
#include "tests/robustness/corrupter.h"
#include "tests/test_support.h"

namespace stj {
namespace {

// Mirrors the writer's frame checksum (april_io.cpp).
uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// Offsets of the record frames, plus the end offset of the last frame.
void FrameOffsets(const std::string& bytes, size_t count,
                  std::vector<size_t>* offsets) {
  constexpr size_t kHeaderSize = 4 + 4 + 8;  // magic, u32 version, u64 count
  size_t off = kHeaderSize;
  for (size_t i = 0; i < count; ++i) {
    offsets->push_back(off);
    uint64_t payload_size = 0;
    ASSERT_LE(off + 16, bytes.size()) << "frame " << i << " past the end";
    std::memcpy(&payload_size, bytes.data() + off, sizeof payload_size);
    ASSERT_LE(payload_size, bytes.size() - off - 16) << "frame " << i;
    off += 16 + payload_size;  // size, checksum, payload
  }
  offsets->push_back(off);
}

// Flips one payload byte of frame \p record and REPAIRS the frame checksum,
// so the damage is invisible to the integrity layer and only the codec
// validation can catch it.
std::string WithCodecCorruptRecord(const std::string& bytes,
                                   const std::vector<size_t>& offsets,
                                   size_t record, size_t payload_byte) {
  std::string damaged = bytes;
  const size_t frame = offsets[record];
  uint64_t payload_size = 0;
  std::memcpy(&payload_size, damaged.data() + frame, sizeof payload_size);
  EXPECT_LT(payload_byte, payload_size);
  const size_t payload_begin = frame + 16;
  damaged[payload_begin + payload_byte] = static_cast<char>(
      ~static_cast<unsigned char>(damaged[payload_begin + payload_byte]));
  const uint64_t checksum = Fnv1a64(damaged.data() + payload_begin,
                                    static_cast<size_t>(payload_size));
  std::memcpy(damaged.data() + frame + 8, &checksum, sizeof checksum);
  return damaged;
}

class AprilBlockedTest : public ::testing::Test {
 protected:
  AprilBlockedTest() {
    Rng rng(73);
    const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}), 9);
    const AprilBuilder builder(&grid);
    std::vector<AprilApproximation> approximations;
    for (int i = 0; i < 8; ++i) {
      approximations.push_back(builder.Build(test::RandomBlob(
          &rng, Point{rng.Uniform(10, 90), rng.Uniform(10, 90)},
          rng.LogUniform(2.0, 15.0), 48, 0.25)));
    }
    flat_ = AprilStore::FromApproximations(approximations);
    store_ = CompressedAprilStore::FromStore(flat_);
  }

  // The saved v3 file's bytes.
  std::string SavedBytes() {
    const std::string path = test::TempPath("april_blocked_scratch.bin");
    EXPECT_TRUE(SaveAprilStoreBlocked(path, store_));
    std::string bytes = test::ReadFileBytes(path);
    std::remove(path.c_str());
    return bytes;
  }

  AprilStore flat_;
  CompressedAprilStore store_;
};

TEST_F(AprilBlockedTest, RoundTripsIntoCompressedStore) {
  const std::string path = test::TempPath("april_blocked_rt.bin");
  ASSERT_TRUE(SaveAprilStoreBlocked(path, store_));

  CompressedAprilStore loaded;
  AprilLoadReport report;
  const Status status = LoadCompressedAprilStore(path, &loaded, &report);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(report.version, 3u);
  EXPECT_FALSE(report.Degraded());
  EXPECT_EQ(report.codec_corrupt, 0u);
  EXPECT_TRUE(loaded == store_);
  loaded.ValidateInvariants();
  std::remove(path.c_str());
}

TEST_F(AprilBlockedTest, FlatLoaderDecodesVersion3Transparently) {
  const std::string path = test::TempPath("april_blocked_flat.bin");
  ASSERT_TRUE(SaveAprilStoreBlocked(path, store_));

  AprilStore loaded;
  AprilLoadReport report;
  const Status status = LoadAprilStore(path, &loaded, &report);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(report.version, 3u);
  EXPECT_FALSE(report.Degraded());
  ASSERT_EQ(loaded.Count(), flat_.Count());
  for (size_t i = 0; i < flat_.Count(); ++i) {
    EXPECT_TRUE(loaded.Conservative(i) == flat_.Conservative(i)) << i;
    EXPECT_TRUE(loaded.Progressive(i) == flat_.Progressive(i)) << i;
  }
  std::remove(path.c_str());
}

TEST_F(AprilBlockedTest, FromStoreAndDecodeRecordAreInverse) {
  ASSERT_EQ(store_.Count(), flat_.Count());
  std::vector<CellInterval> c;
  std::vector<CellInterval> p;
  for (size_t i = 0; i < store_.Count(); ++i) {
    ASSERT_TRUE(store_.DecodeRecord(i, &c, &p)) << i;
    EXPECT_TRUE(IntervalView(c.data(), c.size()) == flat_.Conservative(i))
        << i;
    EXPECT_TRUE(IntervalView(p.data(), p.size()) == flat_.Progressive(i))
        << i;
    EXPECT_EQ(store_.DeepValidateRecord(i), "") << i;
  }
  // The audit checks P ⊆ C on the decoded lists: a well-formed record whose
  // P list sticks out of its C list is named.
  CompressedAprilStore bad = store_;
  bad.AppendEncoded(IntervalList::FromCells({1, 2}),
                    IntervalList::FromCells({2, 3}));
  EXPECT_EQ(bad.DeepValidateRecord(bad.Count() - 1),
            "progressive list not contained in conservative list");
}

TEST_F(AprilBlockedTest, ChecksumCorruptionIsolatesOneRecord) {
  const std::string bytes = SavedBytes();
  std::vector<size_t> offsets;
  ASSERT_NO_FATAL_FAILURE(FrameOffsets(bytes, store_.Count(), &offsets));
  const std::string damaged =
      test::WithFlippedByte(bytes, offsets[2] + 16 + 3);

  const std::string path = test::TempPath("april_blocked_crc.bin");
  test::WriteFileBytes(path, damaged);
  for (const bool via_compressed : {false, true}) {
    AprilLoadReport report;
    size_t count = 0;
    std::vector<bool> usable;
    if (via_compressed) {
      CompressedAprilStore loaded;
      ASSERT_TRUE(LoadCompressedAprilStore(path, &loaded, &report).ok());
      count = loaded.Count();
      for (size_t i = 0; i < count; ++i) usable.push_back(loaded.Usable(i));
    } else {
      AprilStore loaded;
      ASSERT_TRUE(LoadAprilStore(path, &loaded, &report).ok());
      count = loaded.Count();
      for (size_t i = 0; i < count; ++i) usable.push_back(loaded.Usable(i));
    }
    EXPECT_EQ(report.corrupt, 1u) << via_compressed;
    EXPECT_EQ(report.codec_corrupt, 0u) << via_compressed;
    ASSERT_EQ(report.corrupt_indices, std::vector<uint64_t>{2});
    ASSERT_EQ(count, store_.Count());
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(usable[i], i != 2) << via_compressed << " record " << i;
    }
  }
  std::remove(path.c_str());
}

TEST_F(AprilBlockedTest, CodecCorruptionWithValidChecksumIsCaught) {
  // The adversarial case the checksum cannot see: payload damaged AND the
  // frame checksum recomputed. Deep codec validation must catch it, count it
  // separately from bit-rot corruption, and isolate the record.
  const std::string bytes = SavedBytes();
  std::vector<size_t> offsets;
  ASSERT_NO_FATAL_FAILURE(FrameOffsets(bytes, store_.Count(), &offsets));
  // Damage the final payload byte: it belongs to the last block's varint
  // stream, where any flip breaks the header-pinned block endpoint (data
  // bits change the delta sum, the continuation bit truncates the varint).
  uint64_t payload_size = 0;
  std::memcpy(&payload_size, bytes.data() + offsets[3], sizeof payload_size);
  const std::string damaged = WithCodecCorruptRecord(
      bytes, offsets, /*record=*/3,
      /*payload_byte=*/static_cast<size_t>(payload_size) - 1);

  const std::string path = test::TempPath("april_blocked_codec.bin");
  test::WriteFileBytes(path, damaged);
  for (const bool via_compressed : {false, true}) {
    AprilLoadReport report;
    size_t count = 0;
    std::vector<bool> usable;
    if (via_compressed) {
      CompressedAprilStore loaded;
      ASSERT_TRUE(LoadCompressedAprilStore(path, &loaded, &report).ok());
      count = loaded.Count();
      for (size_t i = 0; i < count; ++i) usable.push_back(loaded.Usable(i));
    } else {
      AprilStore loaded;
      ASSERT_TRUE(LoadAprilStore(path, &loaded, &report).ok());
      count = loaded.Count();
      for (size_t i = 0; i < count; ++i) usable.push_back(loaded.Usable(i));
    }
    EXPECT_EQ(report.corrupt, 0u) << via_compressed;
    EXPECT_EQ(report.codec_corrupt, 1u) << via_compressed;
    EXPECT_TRUE(report.Degraded()) << via_compressed;
    ASSERT_EQ(report.corrupt_indices, std::vector<uint64_t>{3});
    ASSERT_EQ(count, store_.Count());
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(usable[i], i != 3) << via_compressed << " record " << i;
    }
  }
  std::remove(path.c_str());
}

TEST_F(AprilBlockedTest, CodecFlipSweepNeverEscapesTheRecord) {
  // Sweep a checksum-repaired flip across every payload byte of one record.
  // Detection is not guaranteed for every position (a flip in a skip
  // header's first_cell varint can shift one block consistently — that is
  // what the frame checksum exists for), but corruption must never escape
  // the record: either it is flagged codec-corrupt and isolated, or the
  // record still loads as a self-consistent canonical list. All other
  // records must come through untouched either way.
  const std::string bytes = SavedBytes();
  std::vector<size_t> offsets;
  ASSERT_NO_FATAL_FAILURE(FrameOffsets(bytes, store_.Count(), &offsets));
  uint64_t payload_size = 0;
  std::memcpy(&payload_size, bytes.data() + offsets[1], sizeof payload_size);
  const std::string path = test::TempPath("april_blocked_sweep.bin");
  size_t detected = 0;
  for (size_t b = 0; b < payload_size; ++b) {
    test::WriteFileBytes(path, WithCodecCorruptRecord(bytes, offsets, 1, b));
    AprilStore loaded;
    AprilLoadReport report;
    ASSERT_TRUE(LoadAprilStore(path, &loaded, &report).ok()) << "flip @" << b;
    ASSERT_EQ(loaded.Count(), store_.Count()) << "flip @" << b;
    EXPECT_EQ(report.corrupt, 0u) << "flip @" << b;
    if (report.codec_corrupt != 0) {
      ++detected;
      EXPECT_EQ(report.codec_corrupt, 1u) << "flip @" << b;
      EXPECT_FALSE(loaded.Usable(1)) << "flip @" << b;
    } else {
      // Undetected flips must still yield a canonical (if different) list.
      ASSERT_TRUE(loaded.Usable(1)) << "flip @" << b;
      const IntervalView survived = loaded.Conservative(1);
      for (size_t k = 0; k < survived.Size(); ++k) {
        EXPECT_LT(survived[k].begin, survived[k].end) << "flip @" << b;
        if (k > 0) {
          EXPECT_LT(survived[k - 1].end, survived[k].begin) << "flip @" << b;
        }
      }
    }
    // Every other record survives untouched.
    for (size_t i = 0; i < loaded.Count(); ++i) {
      if (i == 1) continue;
      EXPECT_TRUE(loaded.Conservative(i) == flat_.Conservative(i))
          << "flip @" << b << " record " << i;
    }
  }
  // The overwhelming majority of positions are block payload bytes, where
  // the pinned block endpoints make any flip detectable.
  EXPECT_GT(detected, payload_size / 2);
  std::remove(path.c_str());
}

TEST_F(AprilBlockedTest, TruncationKeepsVerifiedPrefix) {
  const std::string bytes = SavedBytes();
  std::vector<size_t> offsets;
  ASSERT_NO_FATAL_FAILURE(FrameOffsets(bytes, store_.Count(), &offsets));
  ASSERT_EQ(offsets.back(), bytes.size());
  const std::string path = test::TempPath("april_blocked_trunc.bin");
  for (size_t k = 0; k < store_.Count(); ++k) {
    test::WriteFileBytes(path, test::TruncatedTo(bytes, offsets[k]));
    CompressedAprilStore loaded;
    AprilLoadReport report;
    ASSERT_TRUE(LoadCompressedAprilStore(path, &loaded, &report).ok());
    EXPECT_TRUE(report.truncated);
    EXPECT_EQ(report.loaded, k);
    ASSERT_EQ(loaded.Count(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_TRUE(loaded.Usable(i)) << i;
      EXPECT_EQ(loaded.DeepValidateRecord(i), "") << i;
    }
  }
  std::remove(path.c_str());
}

TEST_F(AprilBlockedTest, CompressedLoaderRejectsVersion2Files) {
  // A hand-written version-2 raw file (one framed record with two empty
  // lists): the retired layout is refused as a structural error by both
  // loaders, never half-read.
  std::string bytes = "APRL";
  const uint32_t version = 2;
  const uint64_t count = 1;
  const uint64_t list_sizes[2] = {0, 0};
  const uint64_t payload_size = sizeof list_sizes;
  const uint64_t checksum = Fnv1a64(
      reinterpret_cast<const char*>(list_sizes), sizeof list_sizes);
  bytes.append(reinterpret_cast<const char*>(&version), sizeof version);
  bytes.append(reinterpret_cast<const char*>(&count), sizeof count);
  bytes.append(reinterpret_cast<const char*>(&payload_size),
               sizeof payload_size);
  bytes.append(reinterpret_cast<const char*>(&checksum), sizeof checksum);
  bytes.append(reinterpret_cast<const char*>(list_sizes), sizeof list_sizes);
  const std::string path = test::TempPath("april_blocked_v2.bin");
  test::WriteFileBytes(path, bytes);
  CompressedAprilStore compressed;
  const Status status = LoadCompressedAprilStore(path, &compressed, nullptr);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(compressed.Count(), 0u);
  AprilStore flat;
  EXPECT_EQ(LoadAprilStore(path, &flat, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(flat.Count(), 0u);
  std::remove(path.c_str());
}

TEST(AprilBlocked, EmptyAndPlaceholderRecordsRoundTrip) {
  CompressedAprilStore store;
  store.AppendEncoded(IntervalView(), IntervalView());  // fully empty record
  store.AppendCorruptPlaceholder();
  IntervalList c = IntervalList::FromCells({5, 6, 7, 20});
  store.AppendEncoded(c, IntervalView());  // empty P list

  const std::string path =
      test::TempPath("april_blocked_empty.bin");
  ASSERT_TRUE(SaveAprilStoreBlocked(path, store));
  CompressedAprilStore loaded;
  AprilLoadReport report;
  ASSERT_TRUE(LoadCompressedAprilStore(path, &loaded, &report).ok());
  ASSERT_EQ(loaded.Count(), 3u);
  EXPECT_TRUE(loaded.Usable(0));
  EXPECT_TRUE(loaded.Conservative(0).Empty());
  // Placeholders are written as empty records, which load as usable empties
  // (the usable flag is not persisted).
  EXPECT_TRUE(loaded.Conservative(1).Empty());
  EXPECT_TRUE(loaded.Usable(2));
  std::vector<CellInterval> flat_c;
  std::vector<CellInterval> flat_p;
  ASSERT_TRUE(loaded.DecodeRecord(2, &flat_c, &flat_p));
  EXPECT_TRUE(IntervalView(flat_c.data(), flat_c.size()) == IntervalView(c));
  EXPECT_TRUE(flat_p.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stj
