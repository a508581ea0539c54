#include <gtest/gtest.h>
#include <algorithm>
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

// Exhaustive single-fault injection against the APRIL binary format (version
// 3): every possible truncation length and every possible single-byte flip
// of a valid file must either fail the load with a Status or degrade it with
// an accurate report — and the verified prefix must always match the
// original data. A crash, hang, or silent wrong answer anywhere in these
// sweeps is a bug.

namespace stj {
namespace {

// Offsets of the record frames in \p bytes (one per record, in order),
// plus the end offset of the last frame. Derived by walking the frame sizes,
// mirroring the reader's resynchronisation rule.
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

class AprilFaultInjectionTest : public ::testing::Test {
 protected:
  AprilFaultInjectionTest() {
    Rng rng(91);
    const RasterGrid grid(Box::Of(Point{0, 0}, Point{64, 64}), 6);
    const AprilBuilder builder(&grid);
    for (int i = 0; i < 6; ++i) {
      originals_.push_back(builder.Build(test::RandomBlob(
          &rng, Point{rng.Uniform(10, 54), rng.Uniform(10, 54)},
          rng.LogUniform(2.0, 10.0), 24, 0.3)));
    }
  }

  // Loads \p bytes as an APRIL file and asserts the damage-is-detected
  // invariants: the load never crashes, a damaged file is never reported
  // fully healthy, and every record in the aligned verified prefix (before
  // the first corrupt or missing index) matches the original bit-for-bit.
  void ExpectDetectedAndPrefixExact(const std::string& bytes,
                                    const std::string& label) {
    const std::string path = test::TempPath("april_fault_scratch.bin");
    test::WriteFileBytes(path, bytes);

    AprilStore loaded;
    AprilLoadReport report;
    const Status status = LoadAprilStore(path, &loaded, &report);

    // Damage must never go unnoticed.
    EXPECT_TRUE(!status.ok() || report.Degraded()) << label;

    if (status.ok()) {
      // Records before the first corruption are frame-aligned with the
      // original file, so they must have decoded exactly.
      size_t verified_prefix = std::min(loaded.Count(), originals_.size());
      if (!report.corrupt_indices.empty()) {
        verified_prefix = std::min<size_t>(verified_prefix,
                                           report.corrupt_indices.front());
      }
      for (size_t i = 0; i < verified_prefix; ++i) {
        ExpectRecordExact(loaded, i, label);
      }
      // Every record the reader flagged corrupt must be marked unusable.
      for (const uint64_t idx : report.corrupt_indices) {
        ASSERT_LT(idx, loaded.Count()) << label;
        EXPECT_FALSE(loaded.Usable(idx)) << label << " record " << idx;
      }
    } else {
      EXPECT_TRUE(loaded.Empty()) << label;
    }
    std::remove(path.c_str());
  }

  // Record \p i of \p loaded is usable and equals the original.
  void ExpectRecordExact(const AprilStore& loaded, size_t i,
                         const std::string& label) const {
    EXPECT_TRUE(loaded.Usable(i)) << label << " record " << i;
    EXPECT_TRUE(loaded.Conservative(i) ==
                IntervalView(originals_[i].conservative))
        << label << " record " << i;
    EXPECT_TRUE(loaded.Progressive(i) ==
                IntervalView(originals_[i].progressive))
        << label << " record " << i;
  }

  std::string SavedBytes() {
    const std::string path = test::TempPath("april_fault.bin");
    EXPECT_TRUE(SaveAprilStoreBlocked(
        path, CompressedAprilStore::FromStore(
                  AprilStore::FromApproximations(originals_))));
    std::string bytes = test::ReadFileBytes(path);
    std::remove(path.c_str());
    return bytes;
  }

  std::vector<AprilApproximation> originals_;
};

TEST_F(AprilFaultInjectionTest, TruncationAtEveryLengthIsDetected) {
  const std::string bytes = SavedBytes();
  ASSERT_GT(bytes.size(), 16u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    ExpectDetectedAndPrefixExact(test::TruncatedTo(bytes, len),
                                 "truncated to " + std::to_string(len));
  }
}

TEST_F(AprilFaultInjectionTest, ByteFlipAtEveryOffsetIsDetected) {
  const std::string bytes = SavedBytes();
  for (size_t i = 0; i < bytes.size(); ++i) {
    ExpectDetectedAndPrefixExact(test::WithFlippedByte(bytes, i),
                                 "flip @" + std::to_string(i));
  }
}

TEST_F(AprilFaultInjectionTest, TruncationAtExactRecordBoundaries) {
  // Cutting precisely between frames must yield exactly the preceding
  // records, all usable, with the missing tail accounted as corrupt.
  const std::string bytes = SavedBytes();
  std::vector<size_t> offsets;
  ASSERT_NO_FATAL_FAILURE(FrameOffsets(bytes, originals_.size(), &offsets));
  ASSERT_EQ(offsets.back(), bytes.size());

  const std::string path = test::TempPath("april_fault_boundary.bin");
  for (size_t k = 0; k < originals_.size(); ++k) {
    test::WriteFileBytes(path, test::TruncatedTo(bytes, offsets[k]));
    AprilStore loaded;
    AprilLoadReport report;
    const Status status = LoadAprilStore(path, &loaded, &report);
    ASSERT_TRUE(status.ok()) << "cut after " << k << ": " << status.ToString();
    EXPECT_TRUE(report.truncated);
    EXPECT_EQ(report.loaded, k);
    EXPECT_EQ(report.corrupt, originals_.size() - k);
    ASSERT_EQ(loaded.Count(), k);
    for (size_t i = 0; i < k; ++i) {
      ExpectRecordExact(loaded, i, "cut after " + std::to_string(k));
    }
  }
  std::remove(path.c_str());
}

TEST_F(AprilFaultInjectionTest, TruncationInsideHeaderIsStructuralError) {
  const std::string bytes = SavedBytes();
  const std::string path = test::TempPath("april_fault_header.bin");
  for (size_t len = 0; len < 16; ++len) {  // magic + version + count
    test::WriteFileBytes(path, test::TruncatedTo(bytes, len));
    AprilStore loaded;
    AprilLoadReport report;
    const Status status = LoadAprilStore(path, &loaded, &report);
    EXPECT_FALSE(status.ok()) << "header cut at " << len;
    EXPECT_TRUE(loaded.Empty()) << "header cut at " << len;
  }
  std::remove(path.c_str());
}

TEST_F(AprilFaultInjectionTest, CorruptMidFileRecordIsIsolated) {
  // One flipped payload byte in record 2 must cost exactly record 2: the
  // reader resynchronises at the next frame and every other record survives.
  const std::string bytes = SavedBytes();
  std::vector<size_t> offsets;
  ASSERT_NO_FATAL_FAILURE(FrameOffsets(bytes, originals_.size(), &offsets));
  const size_t payload_byte = offsets[2] + 16;  // first byte past the frame

  const std::string path = test::TempPath("april_fault_midfile.bin");
  test::WriteFileBytes(path, test::WithFlippedByte(bytes, payload_byte));
  AprilStore loaded;
  AprilLoadReport report;
  const Status status = LoadAprilStore(path, &loaded, &report);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(report.Degraded());
  EXPECT_FALSE(report.truncated);
  EXPECT_EQ(report.corrupt, 1u);
  ASSERT_EQ(report.corrupt_indices, std::vector<uint64_t>{2});
  ASSERT_EQ(loaded.Count(), originals_.size());
  for (size_t i = 0; i < loaded.Count(); ++i) {
    if (i == 2) {
      EXPECT_FALSE(loaded.Usable(i));
      continue;
    }
    ExpectRecordExact(loaded, i, "mid-file flip");
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stj
