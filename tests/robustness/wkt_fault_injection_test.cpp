#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/datasets/dataset_io.h"
#include "src/util/rng.h"
#include "tests/robustness/corrupter.h"
#include "tests/test_support.h"

// Fault injection against WKT ingestion: deterministic line manglings applied
// to every line of a valid dataset file. Strict loads must fail with a Status
// naming the file, 1-based line, and byte offset; permissive loads must
// triage every line into exactly one of accepted / repaired / skipped and
// keep the clean remainder.

namespace stj {
namespace {

struct Mangling {
  const char* name;
  std::function<std::string(const std::string&)> apply;
};

// All manglings that produce a parse error (not merely a repairable line).
const std::vector<Mangling>& ParseBreakingManglings() {
  static const std::vector<Mangling> kManglings = {
      {"truncate-midline",
       [](const std::string& line) { return line.substr(0, line.size() / 2); }},
      {"comma-to-semicolon",
       [](const std::string& line) {
         std::string out = line;
         out[out.find(',')] = ';';
         return out;
       }},
      {"drop-first-paren",
       [](const std::string& line) {
         std::string out = line;
         return out.erase(out.find('('), 1);
       }},
      {"letter-inside-number",
       [](const std::string& line) {
         std::string out = line;
         out.insert(out.find_first_of("0123456789") + 1, "x");
         return out;
       }},
  };
  return kManglings;
}

class WktFaultInjectionTest : public ::testing::Test {
 protected:
  WktFaultInjectionTest() {
    Rng rng(17);
    dataset_.name = "fault";
    dataset_.description = "fault-injection fixture";
    for (int i = 0; i < 6; ++i) {
      SpatialObject object;
      object.id = static_cast<uint32_t>(i);
      object.geometry = test::RandomBlob(
          &rng, Point{rng.Uniform(5, 95), rng.Uniform(5, 95)},
          rng.LogUniform(1.0, 6.0), 16, 0.3);
      dataset_.objects.push_back(std::move(object));
    }
    path_ = test::TempPath("wkt_fault_base.wkt");
    EXPECT_TRUE(SaveWktDataset(path_, dataset_));
    // SaveWktDataset writes one '#' header line, then one polygon per line.
    std::istringstream in(test::ReadFileBytes(path_));
    for (std::string line; std::getline(in, line);) lines_.push_back(line);
    EXPECT_EQ(lines_.size(), dataset_.objects.size() + 1);
    std::remove(path_.c_str());
  }

  // Writes the base file with polygon \p index replaced by mangled text and
  // returns the path. The mangled text lands on file line index + 2 (the
  // header comment is line 1).
  std::string WriteWithMangledLine(size_t index, const std::string& mangled) {
    std::string contents;
    for (size_t i = 0; i < lines_.size(); ++i) {
      contents += (i == index + 1) ? mangled : lines_[i];
      contents += '\n';
    }
    const std::string path = test::TempPath("wkt_fault_scratch.wkt");
    test::WriteFileBytes(path, contents);
    return path;
  }

  Dataset dataset_;
  std::string path_;
  std::vector<std::string> lines_;  // [0] is the header comment.
};

TEST_F(WktFaultInjectionTest, StrictStatusNamesFileLineAndOffset) {
  for (size_t i = 0; i < dataset_.objects.size(); ++i) {
    for (const Mangling& m : ParseBreakingManglings()) {
      const std::string path = WriteWithMangledLine(i, m.apply(lines_[i + 1]));
      Dataset loaded;
      LoadOptions options;  // strict by default
      const Status status = LoadWktDataset(path, "fault", options, &loaded);
      ASSERT_FALSE(status.ok()) << m.name << " line " << i;
      EXPECT_TRUE(loaded.objects.empty()) << m.name;
      EXPECT_EQ(status.file(), path) << m.name;
      ASSERT_TRUE(status.has_line()) << m.name;
      EXPECT_EQ(status.line(), i + 2) << m.name;  // header comment is line 1
      EXPECT_TRUE(status.has_offset()) << m.name;
      // The rendered message is what the CLI prints; it must carry the
      // file:line context so the user can jump to the bad row.
      const std::string rendered = status.ToString();
      EXPECT_NE(rendered.find(path + ":" + std::to_string(i + 2)),
                std::string::npos)
          << rendered;
      std::remove(path.c_str());
    }
  }
}

TEST_F(WktFaultInjectionTest, PermissiveKeepsCleanRemainder) {
  const size_t n = dataset_.objects.size();
  for (size_t i = 0; i < n; ++i) {
    for (const Mangling& m : ParseBreakingManglings()) {
      const std::string path = WriteWithMangledLine(i, m.apply(lines_[i + 1]));
      Dataset loaded;
      LoadOptions options;
      options.mode = LoadMode::kPermissive;
      LoadReport report;
      const Status status =
          LoadWktDataset(path, "fault", options, &loaded, &report);
      ASSERT_TRUE(status.ok()) << m.name << ": " << status.ToString();
      EXPECT_EQ(report.lines, n) << m.name;
      EXPECT_EQ(report.accepted + report.repaired + report.skipped,
                report.lines)
          << m.name;
      EXPECT_GE(report.skipped + report.repaired, 1u) << m.name;
      EXPECT_EQ(loaded.objects.size(), report.accepted + report.repaired)
          << m.name;
      EXPECT_GE(report.issues.size(), 1u) << m.name;
      EXPECT_EQ(report.issues[0].line, i + 2) << m.name;
      // Ids are reassigned densely over the surviving lines.
      for (size_t k = 0; k < loaded.objects.size(); ++k) {
        EXPECT_EQ(loaded.objects[k].id, static_cast<uint32_t>(k));
      }
      std::remove(path.c_str());
    }
  }
}

TEST_F(WktFaultInjectionTest, DuplicateVertexIsRepairedNotSkipped) {
  // Duplicating the first vertex parses fine but needs structural repair.
  const std::string& line = lines_[1];
  const size_t open = line.find("((") + 2;
  const size_t comma = line.find(',', open);
  const std::string vertex = line.substr(open, comma - open);
  const std::string mangled =
      line.substr(0, comma) + ", " + vertex + line.substr(comma);

  const std::string path = WriteWithMangledLine(0, mangled);
  Dataset loaded;
  LoadOptions options;
  options.mode = LoadMode::kPermissive;
  LoadReport report;
  ASSERT_TRUE(LoadWktDataset(path, "fault", options, &loaded, &report).ok());
  EXPECT_EQ(report.repaired, 1u);
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_EQ(report.accepted, dataset_.objects.size() - 1);
  ASSERT_EQ(loaded.objects.size(), dataset_.objects.size());
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].action, LineIssue::Action::kRepaired);
  // The repaired polygon must match the original geometry.
  EXPECT_EQ(loaded.objects[0].geometry.Outer(),
            dataset_.objects[0].geometry.Outer());

  // Strict mode accepts it too (parses fine; repair is permissive-only).
  Dataset strict;
  ASSERT_TRUE(LoadWktDataset(path, "fault", LoadOptions{}, &strict).ok());
  EXPECT_EQ(strict.objects.size(), dataset_.objects.size());
  std::remove(path.c_str());
}

TEST_F(WktFaultInjectionTest, MultipleBadLinesAllTriaged) {
  // Mangle polygons 0, 2, 4 at once (distinct manglings).
  std::string contents;
  const auto& manglings = ParseBreakingManglings();
  for (size_t i = 0; i < lines_.size(); ++i) {
    std::string line = lines_[i];
    if (i == 1) line = manglings[0].apply(line);
    if (i == 3) line = manglings[1].apply(line);
    if (i == 5) line = manglings[3].apply(line);
    contents += line + '\n';
  }
  const std::string path = test::TempPath("wkt_fault_multi.wkt");
  test::WriteFileBytes(path, contents);

  Dataset loaded;
  LoadOptions options;
  options.mode = LoadMode::kPermissive;
  LoadReport report;
  ASSERT_TRUE(LoadWktDataset(path, "fault", options, &loaded, &report).ok());
  EXPECT_EQ(report.lines, dataset_.objects.size());
  EXPECT_EQ(report.skipped, 3u);
  EXPECT_EQ(report.repaired, 0u);
  EXPECT_EQ(report.accepted, dataset_.objects.size() - 3);
  EXPECT_EQ(loaded.objects.size(), dataset_.objects.size() - 3);
  ASSERT_EQ(report.issues.size(), 3u);
  EXPECT_EQ(report.issues[0].line, 2u);
  EXPECT_EQ(report.issues[1].line, 4u);
  EXPECT_EQ(report.issues[2].line, 6u);

  // Strict mode stops at the FIRST bad line.
  Dataset strict;
  const Status status = LoadWktDataset(path, "fault", LoadOptions{}, &strict);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.line(), 2u);
  std::remove(path.c_str());
}

TEST_F(WktFaultInjectionTest, IssueCapKeepsCountingBeyondIt) {
  // Every polygon line mangled, cap of 2 retained issues.
  std::string contents;
  for (size_t i = 0; i < lines_.size(); ++i) {
    std::string line = lines_[i];
    if (i >= 1) line = ParseBreakingManglings()[1].apply(line);
    contents += line + '\n';
  }
  const std::string path = test::TempPath("wkt_fault_cap.wkt");
  test::WriteFileBytes(path, contents);

  Dataset loaded;
  LoadOptions options;
  options.mode = LoadMode::kPermissive;
  options.max_issues = 2;
  LoadReport report;
  ASSERT_TRUE(LoadWktDataset(path, "fault", options, &loaded, &report).ok());
  EXPECT_TRUE(loaded.objects.empty());
  EXPECT_EQ(report.skipped, dataset_.objects.size());
  EXPECT_EQ(report.issues.size(), 2u);
  EXPECT_EQ(report.issues_dropped, dataset_.objects.size() - 2);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stj
