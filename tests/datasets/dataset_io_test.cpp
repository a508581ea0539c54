#include "src/datasets/dataset_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include "tests/test_support.h"

namespace stj {
namespace {

TEST(DatasetIo, RoundTripPreservesGeometry) {
  const Dataset original = BuildDataset("TW", 0.003, 11);
  ASSERT_FALSE(original.objects.empty());
  const std::string path = test::TempPath("tw_roundtrip.wkt");
  ASSERT_TRUE(SaveWktDataset(path, original));

  Dataset loaded;
  ASSERT_TRUE(LoadWktDataset(path, "TW", &loaded));
  ASSERT_EQ(loaded.objects.size(), original.objects.size());
  for (size_t i = 0; i < original.objects.size(); ++i) {
    EXPECT_EQ(loaded.objects[i].geometry.Outer(),
              original.objects[i].geometry.Outer())
        << i;
    EXPECT_EQ(loaded.objects[i].geometry.Holes().size(),
              original.objects[i].geometry.Holes().size())
        << i;
    EXPECT_EQ(loaded.objects[i].id, static_cast<uint32_t>(i));
  }
  std::remove(path.c_str());
}

TEST(DatasetIo, SavedBytesDoNotDependOnThreadCount) {
  // The writer cuts slices of about 2^16 vertices: with over 4 x 2^16
  // vertices, four workers format more than one round of slices, the last
  // one partial.
  const Dataset dataset = BuildDataset("OPE", 0.05, 5);
  ASSERT_GT(dataset.TotalVertices(), 4u * (size_t{1} << 16));
  const auto bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string path = test::TempPath("save_threads.wkt");
  ASSERT_TRUE(SaveWktDataset(path, dataset, 1));
  const std::string serial = bytes(path);
  for (const unsigned threads : {3u, 4u, 0u}) {
    ASSERT_TRUE(SaveWktDataset(path, dataset, threads));
    EXPECT_TRUE(bytes(path) == serial) << threads << " threads";
  }
  Dataset loaded;
  ASSERT_TRUE(LoadWktDataset(path, "OBE", &loaded));
  EXPECT_EQ(loaded.objects.size(), dataset.objects.size());
  std::remove(path.c_str());
}

TEST(DatasetIo, SkipsCommentsAndBlankLines) {
  const std::string path = test::TempPath("commented.wkt");
  {
    std::ofstream out(path);
    out << "# header comment\n\n"
        << "POLYGON ((0 0, 1 0, 1 1, 0 1))\n"
        << "\n# another comment\n"
        << "POLYGON ((2 2, 3 2, 3 3))\n";
  }
  Dataset loaded;
  ASSERT_TRUE(LoadWktDataset(path, "test", &loaded));
  EXPECT_EQ(loaded.objects.size(), 2u);
  std::remove(path.c_str());
}

TEST(DatasetIo, FailsOnMalformedLine) {
  const std::string path = test::TempPath("malformed.wkt");
  {
    std::ofstream out(path);
    out << "POLYGON ((0 0, 1 0, 1 1))\n"
        << "POLYGON ((not a polygon))\n";
  }
  Dataset loaded;
  EXPECT_FALSE(LoadWktDataset(path, "test", &loaded));
  EXPECT_TRUE(loaded.objects.empty());
  std::remove(path.c_str());
}

TEST(DatasetIo, FailsOnMissingFile) {
  Dataset loaded;
  EXPECT_FALSE(LoadWktDataset(test::TempPath("nope.wkt"), "test", &loaded));
}

TEST(DatasetIo, StrictStatusNamesLineAndOffset) {
  const std::string path = test::TempPath("strict_detail.wkt");
  {
    std::ofstream out(path);
    out << "# comment\n"
        << "POLYGON ((0 0, 1 0, 1 1))\n"
        << "POLYGON ((0 0, 1 oops, 1 1))\n";
  }
  Dataset loaded;
  const Status status =
      LoadWktDataset(path, "test", LoadOptions{}, &loaded);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(loaded.objects.empty());
  EXPECT_EQ(status.file(), path);
  EXPECT_EQ(status.line(), 3u);
  EXPECT_TRUE(status.has_offset());
  std::remove(path.c_str());
}

TEST(DatasetIo, StrictRejectsZeroAreaRings) {
  // A hole or outer ring of zero area fails a strict load at its line (the
  // O(n) area test, no ValidatePolygon), as permissive mode drops the hole
  // or skips the polygon.
  const std::string path = test::TempPath("strict_zero_area.wkt");
  for (const auto& [wkt, reason] :
       {std::pair<std::string, std::string>{
            "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 3 1, 1 1))",
            "hole 0 has zero area"},
        {"POLYGON ((0 0, 0 0, 0 0, 0 0))", "outer ring has zero area"},
        {"POLYGON ((0 0, 2 2, 4 4, 0 0))", "outer ring has zero area"}}) {
    {
      std::ofstream out(path);
      out << "POLYGON ((0 0, 1 0, 1 1))\n" << wkt << "\n";
    }
    Dataset loaded;
    LoadReport report;
    const Status status =
        LoadWktDataset(path, "test", LoadOptions{}, &loaded, &report);
    ASSERT_FALSE(status.ok()) << wkt;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << wkt;
    EXPECT_EQ(status.file(), path);
    EXPECT_EQ(status.line(), 2u);
    EXPECT_NE(status.message().find(reason), std::string::npos)
        << status.ToString();
    EXPECT_TRUE(loaded.objects.empty());
    ASSERT_EQ(report.issues.size(), 1u);
    EXPECT_EQ(report.issues[0].action, LineIssue::Action::kRejected);
  }
  std::remove(path.c_str());
}

TEST(DatasetIo, PermissiveTriagesEveryLine) {
  // Two clean lines, one repairable (duplicate consecutive vertex), one
  // unreparable zero-area zig-zag, one parse error: permissive mode must
  // land each in exactly one bucket and load accepted + repaired objects.
  const std::string path = test::TempPath("permissive_counts.wkt");
  {
    std::ofstream out(path);
    out << "POLYGON ((0 0, 4 0, 4 4, 0 4))\n"
        << "POLYGON ((10 10, 12 10, 12 10, 12 12))\n"  // repairable
        << "POLYGON ((5 5, 6 6, 5 5, 6 6))\n"          // zero area: skip
        << "POLYGON ((not a polygon))\n"               // parse error: skip
        << "POLYGON ((20 0, 21 0, 21 1, 20 1))\n";
  }
  Dataset loaded;
  LoadOptions options;
  options.mode = LoadMode::kPermissive;
  LoadReport report;
  ASSERT_TRUE(
      LoadWktDataset(path, "test", options, &loaded, &report).ok());
  EXPECT_EQ(report.lines, 5u);
  EXPECT_EQ(report.accepted, 2u);
  EXPECT_EQ(report.repaired, 1u);
  EXPECT_EQ(report.skipped, 2u);
  EXPECT_EQ(report.issues_dropped, 0u);
  ASSERT_EQ(report.issues.size(), 3u);
  EXPECT_EQ(report.issues[0].line, 2u);
  EXPECT_EQ(report.issues[0].action, LineIssue::Action::kRepaired);
  EXPECT_EQ(report.issues[1].line, 3u);
  EXPECT_EQ(report.issues[1].action, LineIssue::Action::kSkipped);
  EXPECT_EQ(report.issues[2].line, 4u);
  EXPECT_EQ(report.issues[2].action, LineIssue::Action::kSkipped);

  ASSERT_EQ(loaded.objects.size(), 3u);
  // The repaired polygon keeps its place in file order, ids are dense.
  EXPECT_EQ(loaded.objects[1].geometry.Outer().Size(), 3u);
  for (size_t i = 0; i < loaded.objects.size(); ++i) {
    EXPECT_EQ(loaded.objects[i].id, static_cast<uint32_t>(i));
  }
  std::remove(path.c_str());
}

TEST(DatasetIo, PermissiveStillFailsOnIoError) {
  Dataset loaded;
  LoadOptions options;
  options.mode = LoadMode::kPermissive;
  const Status status =
      LoadWktDataset(test::TempPath("still_nope.wkt"), "test", options,
                     &loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace stj
