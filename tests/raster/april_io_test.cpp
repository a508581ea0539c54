#include "src/raster/april_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "src/util/rng.h"
#include "tests/robustness/corrupter.h"
#include "tests/test_support.h"

namespace stj {
namespace {

/// Writes \p approximations as an APRIL file (the one format: version 3).
bool SaveApproximations(const std::string& path,
                        const std::vector<AprilApproximation>& approximations) {
  return SaveAprilStoreBlocked(
      path, CompressedAprilStore::FromStore(
                AprilStore::FromApproximations(approximations)));
}

TEST(AprilIo, RoundTripPreservesLists) {
  Rng rng(41);
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}), 8);
  const AprilBuilder builder(&grid);
  std::vector<AprilApproximation> originals;
  for (int i = 0; i < 20; ++i) {
    originals.push_back(builder.Build(test::RandomBlob(
        &rng, Point{rng.Uniform(10, 90), rng.Uniform(10, 90)},
        rng.LogUniform(0.5, 8.0), 32, 0.2)));
  }
  const std::string path = test::TempPath("april_roundtrip.bin");
  ASSERT_TRUE(SaveApproximations(path, originals));

  AprilStore loaded;
  AprilLoadReport report;
  ASSERT_TRUE(LoadAprilStore(path, &loaded, &report).ok());
  EXPECT_FALSE(report.Degraded());
  ASSERT_EQ(loaded.Count(), originals.size());
  for (size_t i = 0; i < originals.size(); ++i) {
    EXPECT_TRUE(loaded.Usable(i)) << i;
    EXPECT_TRUE(loaded.Conservative(i) ==
                IntervalView(originals[i].conservative))
        << i;
    EXPECT_TRUE(loaded.Progressive(i) ==
                IntervalView(originals[i].progressive))
        << i;
  }
  std::remove(path.c_str());
}

TEST(AprilIo, EmptyCollection) {
  const std::string path = test::TempPath("april_empty.bin");
  ASSERT_TRUE(SaveAprilStoreBlocked(path, CompressedAprilStore()));
  AprilStore loaded;
  loaded.AppendRecord(IntervalView(), IntervalView());  // must be cleared
  AprilLoadReport report;
  ASSERT_TRUE(LoadAprilStore(path, &loaded, &report).ok());
  EXPECT_FALSE(report.Degraded());
  EXPECT_TRUE(loaded.Empty());
  std::remove(path.c_str());
}

TEST(AprilIo, RejectsMissingFile) {
  AprilStore loaded;
  EXPECT_FALSE(
      LoadAprilStore(test::TempPath("does_not_exist.bin"), &loaded).ok());
}

TEST(AprilIo, RejectsBadMagic) {
  const std::string path = test::TempPath("april_badmagic.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("NOPE", 1, 4, f);
  std::fclose(f);
  AprilStore loaded;
  const Status status = LoadAprilStore(path, &loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(AprilIo, RejectsTruncatedFile) {
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{10, 10}), 6);
  const AprilBuilder builder(&grid);
  const std::vector<AprilApproximation> originals = {
      builder.Build(test::Square(1, 1, 8, 8))};
  const std::string path = test::TempPath("april_truncated.bin");
  ASSERT_TRUE(SaveApproximations(path, originals));
  // Truncate the file to half its size.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(::truncate(path.c_str(), size / 2), 0);
  AprilStore loaded;
  AprilLoadReport report;
  const Status status = LoadAprilStore(path, &loaded, &report);
  EXPECT_TRUE(!status.ok() || report.Degraded());
  EXPECT_EQ(loaded.Count(), 0u);  // the only record is gone
  std::remove(path.c_str());
}

TEST(AprilIo, CompressedFormatIsSubstantiallySmaller) {
  // The block codec stores each interval as two small varint deltas, so a
  // file is several times smaller than the flat u64 intervals it encodes.
  Rng rng(47);
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}), 12);
  const AprilBuilder builder(&grid);
  std::vector<AprilApproximation> originals;
  for (int i = 0; i < 10; ++i) {
    originals.push_back(builder.Build(test::RandomBlob(
        &rng, Point{rng.Uniform(20, 80), rng.Uniform(20, 80)}, 10.0, 128)));
  }
  const std::string path = test::TempPath("april_comp_size.bin");
  ASSERT_TRUE(SaveApproximations(path, originals));
  const size_t flat = AprilStore::FromApproximations(originals)
                          .IntervalByteSize();
  const size_t file = test::ReadFileBytes(path).size();
  EXPECT_LT(file * 3, flat) << "file " << file << " vs flat " << flat;
  std::remove(path.c_str());
}

TEST(AprilIo, CompressedEmptyListsRoundTrip) {
  // Slivers can have empty P lists; the file format must keep them.
  std::vector<AprilApproximation> originals(2);
  originals[0].conservative = IntervalList::FromCells({1, 2, 3, 99});
  const std::string path = test::TempPath("april_comp_empty.bin");
  ASSERT_TRUE(SaveApproximations(path, originals));
  AprilStore loaded;
  ASSERT_TRUE(LoadAprilStore(path, &loaded).ok());
  ASSERT_EQ(loaded.Count(), 2u);
  EXPECT_TRUE(loaded.Conservative(0) ==
              IntervalView(originals[0].conservative));
  EXPECT_TRUE(loaded.Progressive(0).Empty());
  EXPECT_TRUE(loaded.Conservative(1).Empty());
  std::remove(path.c_str());
}

TEST(AprilIo, DetailedReportOnHealthyFile) {
  Rng rng(49);
  const RasterGrid grid(Box::Of(Point{0, 0}, Point{50, 50}), 7);
  const AprilBuilder builder(&grid);
  std::vector<AprilApproximation> originals;
  for (int i = 0; i < 5; ++i) {
    originals.push_back(builder.Build(test::RandomBlob(
        &rng, Point{rng.Uniform(10, 40), rng.Uniform(10, 40)}, 4.0, 24)));
  }
  const std::string path = test::TempPath("april_detailed.bin");
  ASSERT_TRUE(SaveApproximations(path, originals));
  AprilStore loaded;
  AprilLoadReport report;
  const Status status = LoadAprilStore(path, &loaded, &report);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(report.version, 3u);
  EXPECT_EQ(report.declared_count, originals.size());
  EXPECT_EQ(report.loaded, originals.size());
  EXPECT_EQ(report.corrupt, 0u);
  EXPECT_EQ(report.codec_corrupt, 0u);
  EXPECT_FALSE(report.truncated);
  EXPECT_FALSE(report.Degraded());
  EXPECT_TRUE(report.corrupt_indices.empty());
  for (size_t i = 0; i < loaded.Count(); ++i) EXPECT_TRUE(loaded.Usable(i));
  std::remove(path.c_str());
}

TEST(AprilIo, MissingFileStatusNamesIt) {
  AprilStore loaded;
  const std::string path = test::TempPath("absent.april");
  const Status status = LoadAprilStore(path, &loaded, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.file(), path);
}

TEST(AprilIo, RejectsNonCanonicalLists) {
  // Hand-craft a record whose two C blocks overlap ([0,10) then [5,20)),
  // with a valid frame checksum: only codec validation can refuse it.
  std::string payload;
  for (const uint8_t byte : {
           2, 2,           // C: 2 intervals in 2 blocks
           0, 10, 1, 1,    // block 0: first_cell 0, span 10, 1 interval
           5, 15, 1, 1,    // block 1: first_cell 5, span 15 (overlaps)
           9, 14,          // block payloads: len - 1 of each interval
           0, 0}) {        // P: empty
    payload.push_back(static_cast<char>(byte));
  }
  uint64_t checksum = 0xcbf29ce484222325ull;  // fnv1a64, as the writer
  for (const char c : payload) {
    checksum ^= static_cast<unsigned char>(c);
    checksum *= 0x100000001b3ull;
  }
  std::string bytes = "APRB";
  const uint32_t version = 3;
  const uint64_t count = 1;
  const uint64_t size = payload.size();
  bytes.append(reinterpret_cast<const char*>(&version), sizeof version);
  bytes.append(reinterpret_cast<const char*>(&count), sizeof count);
  bytes.append(reinterpret_cast<const char*>(&size), sizeof size);
  bytes.append(reinterpret_cast<const char*>(&checksum), sizeof checksum);
  bytes += payload;
  const std::string path = test::TempPath("april_noncanonical.bin");
  test::WriteFileBytes(path, bytes);
  AprilStore loaded;
  AprilLoadReport report;
  ASSERT_TRUE(LoadAprilStore(path, &loaded, &report).ok());
  EXPECT_EQ(report.codec_corrupt, 1u);
  ASSERT_EQ(loaded.Count(), 1u);
  EXPECT_FALSE(loaded.Usable(0));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stj
