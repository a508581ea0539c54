#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "src/datasets/dataset_io.h"
#include "src/geometry/validate.h"
#include "src/geometry/wkt.h"
#include "src/util/rng.h"
#include "tests/robustness/corrupter.h"
#include "tests/test_support.h"

// Differential test of the ranged WKT loader. LoadWktDataset splits a file
// into byte ranges, parses them on 1 to 8 workers and merges them in file
// order; whatever the thread count, it must return exactly what the serial
// std::getline loop it replaced returns: the Status text, every LoadReport
// field and issue, the object ids and the geometry. The files put every
// kind of special line (blank, comment, CRLF, malformed, non-finite,
// repairable, unrepairable, self-intersecting, longer than a read window)
// on, next to and across the range boundaries, in strict and permissive
// mode, with and without a final '\n'.

namespace stj {
namespace {

// ------------------------------------------------------------------ oracle

void SerialRecordIssue(const LoadOptions& options, LoadReport* report,
                       uint64_t line, LineIssue::Action action,
                       std::string reason) {
  if (report == nullptr) return;
  if (report->issues.size() < options.max_issues) {
    report->issues.push_back(LineIssue{line, action, std::move(reason)});
  } else {
    ++report->issues_dropped;
  }
}

/// The serial loader the ranged one replaced, kept as the oracle — one
/// std::getline pass on the calling thread — with the strict rule added
/// since: a ring of zero area rejects the line.
Status SerialLoad(const std::string& path, const std::string& name,
                  const LoadOptions& options, Dataset* out,
                  LoadReport* report) {
  out->objects.clear();
  out->name = name;
  if (report != nullptr) *report = LoadReport{};
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open dataset file").WithFile(path);
  }
  const bool permissive = options.mode == LoadMode::kPermissive;
  std::string line;
  uint64_t line_number = 0;
  uint32_t id = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    if (report != nullptr) ++report->lines;

    Result<Polygon> polygon = ParseWktPolygon(line);
    if (!polygon.has_value()) {
      Status error = polygon.status();
      error.WithFile(path).WithLine(line_number);
      if (!permissive) {
        SerialRecordIssue(options, report, line_number,
                          LineIssue::Action::kRejected, error.message());
        out->objects.clear();
        return error;
      }
      if (report != nullptr) ++report->skipped;
      SerialRecordIssue(options, report, line_number,
                        LineIssue::Action::kSkipped, error.message());
      continue;
    }

    bool was_repaired = false;
    std::string repairs;
    if (!permissive) {
      const ValidationResult areas = ValidateRingAreas(*polygon);
      if (!areas.valid) {
        Status error = Status::InvalidArgument("degenerate polygon: " +
                                               areas.reason);
        error.WithFile(path).WithLine(line_number);
        SerialRecordIssue(options, report, line_number,
                          LineIssue::Action::kRejected, error.message());
        out->objects.clear();
        return error;
      }
    } else {
      Polygon repaired;
      switch (RepairPolygon(*polygon, &repaired, &repairs)) {
        case RepairOutcome::kUnchanged:
          break;
        case RepairOutcome::kRepaired:
          *polygon = std::move(repaired);
          was_repaired = true;
          break;
        case RepairOutcome::kUnrepairable:
          if (report != nullptr) ++report->skipped;
          SerialRecordIssue(options, report, line_number,
                            LineIssue::Action::kSkipped,
                            "degenerate outer ring (fewer than 3 distinct "
                            "vertices or zero area)");
          continue;
      }
    }

    if (options.validate) {
      const ValidationResult validity = ValidatePolygon(*polygon);
      if (!validity.valid) {
        Status error = Status::InvalidArgument("invalid polygon: " +
                                               validity.reason)
                           .WithFile(path)
                           .WithLine(line_number);
        if (!permissive) {
          out->objects.clear();
          return error;
        }
        if (report != nullptr) ++report->skipped;
        SerialRecordIssue(options, report, line_number,
                          LineIssue::Action::kSkipped, error.message());
        continue;
      }
    }

    if (report != nullptr) {
      if (was_repaired) {
        ++report->repaired;
        SerialRecordIssue(options, report, line_number,
                          LineIssue::Action::kRepaired, repairs);
      } else {
        ++report->accepted;
      }
    }
    out->objects.push_back(SpatialObject{id++, std::move(*polygon)});
  }
  if (in.bad()) {
    out->objects.clear();
    return Status::IoError("read error").WithFile(path).WithLine(line_number);
  }
  return Status::Ok();
}

// ------------------------------------------------------------- comparison

/// Everything a load returns, rendered for comparison.
struct Outcome {
  std::string status;
  std::string report;
  std::vector<uint32_t> ids;
  std::vector<std::string> wkt;
};

std::string Render(const LoadReport& report) {
  std::string text = "lines " + std::to_string(report.lines) + ", accepted " +
                     std::to_string(report.accepted) + ", repaired " +
                     std::to_string(report.repaired) + ", skipped " +
                     std::to_string(report.skipped) + ", dropped " +
                     std::to_string(report.issues_dropped) + "\n";
  for (const LineIssue& issue : report.issues) {
    text += "  " + std::to_string(issue.line) + " action " +
            std::to_string(static_cast<int>(issue.action)) + ": " +
            issue.reason + "\n";
  }
  return text;
}

template <typename Loader>
Outcome Run(Loader load, const std::string& path, const LoadOptions& options) {
  Dataset dataset;
  dataset.name = "stale";
  dataset.objects.push_back(SpatialObject{99, test::UnitSquare()});
  LoadReport report;
  report.lines = 12345;  // every field must be overwritten
  const Status status = load(path, "diff", options, &dataset, &report);
  Outcome outcome{status.ToString(), Render(report), {}, {}};
  EXPECT_EQ(dataset.name, "diff");
  for (const SpatialObject& object : dataset.objects) {
    outcome.ids.push_back(object.id);
    outcome.wkt.push_back(ToWkt(object.geometry));
  }
  return outcome;
}

/// Loads \p path with the serial oracle and with the ranged loader at 1 to
/// 8 threads, in both modes, and expects identical outcomes. Returns the
/// number of comparisons made.
int ExpectMatchesSerialLoop(const std::string& path, LoadOptions options,
                            const std::string& context) {
  int compared = 0;
  for (const LoadMode mode : {LoadMode::kStrict, LoadMode::kPermissive}) {
    options.mode = mode;
    const Outcome want = Run(SerialLoad, path, options);
    for (unsigned threads = 1; threads <= 8; ++threads) {
      options.num_threads = threads;
      const auto ranged = [](const std::string& p, const std::string& n,
                             const LoadOptions& o, Dataset* d,
                             LoadReport* r) {
        return LoadWktDataset(p, n, o, d, r);
      };
      const Outcome got = Run(ranged, path, options);
      const std::string where =
          context + (mode == LoadMode::kStrict ? ", strict" : ", permissive") +
          ", max_issues " + std::to_string(options.max_issues) +
          (options.validate ? ", validate" : "") + ", " +
          std::to_string(threads) + " threads";
      EXPECT_EQ(got.status, want.status) << where;
      EXPECT_EQ(got.report, want.report) << where;
      EXPECT_EQ(got.ids, want.ids) << where;
      EXPECT_TRUE(got.wkt == want.wkt) << where << ": geometry differs";
      if (::testing::Test::HasFailure()) return compared;
      ++compared;
    }
  }
  return compared;
}

// ------------------------------------------------------------------ inputs

enum class Kind {
  kValid,
  kHoled,
  kComment,
  kBlank,
  kCrlf,
  kCarriageReturnOnly,
  kMalformed,
  kIndentedComment,
  kNonFinite,
  kRepairable,
  kUnrepairable,
  kSelfIntersecting,
};
constexpr int kNumKinds = 12;

/// One line of \p kind, without its '\n'.
std::string MakeLine(Kind kind, Rng* rng) {
  const Point center{rng->Uniform(10, 90), rng->Uniform(10, 90)};
  switch (kind) {
    case Kind::kValid:
      return ToWkt(test::RandomBlob(rng, center, rng->Uniform(1, 5),
                                    static_cast<size_t>(rng->UniformInt(3, 12))));
    case Kind::kHoled:
      return ToWkt(test::SquareWithHole(center.x - 4, center.y - 4,
                                        center.x + 4, center.y + 4, 1));
    case Kind::kComment:
      return "# comment " + std::to_string(rng->NextBounded(100000));
    case Kind::kBlank:
      return "";
    case Kind::kCrlf:
      return ToWkt(test::RandomBlob(rng, center, 2, 5)) + "\r";
    case Kind::kCarriageReturnOnly:
      return "\r";
    case Kind::kMalformed: {
      const std::string wkt = ToWkt(test::RandomBlob(rng, center, 2, 6));
      return wkt.substr(0, 10 + rng->NextBounded(wkt.size() - 11));
    }
    case Kind::kIndentedComment:
      return "  # not a comment: the '#' must come first";
    case Kind::kNonFinite:
      return rng->Bernoulli(0.5) ? "POLYGON ((0 0, nan 0, 1 1, 0 1, 0 0))"
                                 : "POLYGON ((0 0, 1 0, 1 -inf, 0 1))";
    case Kind::kRepairable:
      return "POLYGON ((10 10, 12 10, 12 10, 12 12, 10 12))";
    case Kind::kUnrepairable:
      return "POLYGON ((5 5, 6 6, 5 5, 6 6))";
    case Kind::kSelfIntersecting:
      return "POLYGON ((0 0, 4 4, 4 0, 0 3))";
  }
  return "";
}

std::string RandomLine(Rng* rng) {
  // Mostly polygons, so the ranges carry objects as well as issues.
  if (rng->Bernoulli(0.6)) return MakeLine(Kind::kValid, rng);
  return MakeLine(static_cast<Kind>(rng->NextBounded(kNumKinds)), rng);
}

/// A file in which a line of \p kind sits so that the first byte of range
/// \p range of \p ranges lies \p delta bytes after the line's first byte
/// (negative: before it). delta 0 puts the line on the boundary, its length
/// puts the boundary on its '\n', and one more makes it end just before the
/// boundary. Random lines pad both sides; a padding comment shifts the line
/// until the boundary lands where asked.
std::string PlacedFile(Kind kind, int64_t delta, uint64_t range,
                       uint64_t ranges, bool final_newline, Rng* rng) {
  std::string head;
  for (uint64_t n = rng->NextBounded(4); n > 0; --n) head += RandomLine(rng) + "\n";
  const std::string special = MakeLine(kind, rng) + "\n";
  std::string tail;
  const auto boundary = [&](uint64_t size) { return size * range / ranges; };
  const auto file_size = [&](uint64_t pad) {
    return head.size() + pad + special.size() + tail.size() -
           (final_newline ? 0 : 1);
  };
  // The boundary must not start out before the special line: grow the tail.
  const auto target = [&](uint64_t pad) {
    return static_cast<int64_t>(head.size() + pad) + delta;
  };
  while (static_cast<int64_t>(boundary(file_size(2))) < target(2)) {
    tail += RandomLine(rng) + "\n";
  }
  // Each padding byte moves the line by one and the boundary by at most
  // one, so the distance shrinks to zero without skipping it.
  uint64_t pad = 2;  // "#\n"
  while (static_cast<int64_t>(boundary(file_size(pad))) != target(pad)) ++pad;
  std::string file = head + "#" + std::string(pad - 2, 'p') + "\n" + special +
                     tail;
  if (!final_newline) file.pop_back();
  EXPECT_EQ(static_cast<int64_t>(boundary(file.size())),
            static_cast<int64_t>(head.size() + pad) + delta);
  return file;
}

// ------------------------------------------------------------------- tests

TEST(WktLoadDifferential, SpecialLinesOnRangeBoundaries) {
  Rng rng(16);
  const std::string path = test::TempPath("placed.wkt");
  int compared = 0;
  int file_index = 0;
  for (int k = 0; k < kNumKinds; ++k) {
    const auto kind = static_cast<Kind>(k);
    const int64_t length = static_cast<int64_t>(MakeLine(kind, &rng).size());
    // Boundary one byte before the line, on it, one byte in, mid-line, on
    // its last byte, on its '\n', and on the next line's first byte.
    for (const int64_t delta :
         {int64_t{-1}, int64_t{0}, int64_t{1}, length / 2, length - 1, length,
          length + 1}) {
      const uint64_t ranges = 2 + static_cast<uint64_t>(file_index % 7);
      const uint64_t range = 1 + rng.NextBounded(ranges - 1);
      const bool final_newline = file_index % 2 == 0;
      test::WriteFileBytes(
          path, PlacedFile(kind, delta, range, ranges, final_newline, &rng));
      LoadOptions options;
      options.max_issues = 1 + static_cast<size_t>(file_index % 6);
      options.validate = file_index % 3 == 0;
      compared += ExpectMatchesSerialLoop(
          path, options,
          "kind " + std::to_string(k) + ", delta " + std::to_string(delta) +
              ", boundary " + std::to_string(range) + "/" +
              std::to_string(ranges));
      if (HasFailure()) return;
      ++file_index;
    }
  }
  std::remove(path.c_str());
  EXPECT_EQ(compared, file_index * 16);
}

TEST(WktLoadDifferential, RandomFilesWithAndWithoutFinalNewline) {
  Rng rng(7);
  const std::string path = test::TempPath("random.wkt");
  for (int file = 0; file < 40; ++file) {
    std::string bytes;
    for (uint64_t n = 1 + rng.NextBounded(30); n > 0; --n) {
      bytes += RandomLine(&rng) + "\n";
    }
    if (file % 2 == 1) bytes.pop_back();
    test::WriteFileBytes(path, bytes);
    LoadOptions options;
    options.max_issues = 1 + static_cast<size_t>(file % 6);
    options.validate = file % 4 == 0;
    ExpectMatchesSerialLoop(path, options, "file " + std::to_string(file));
    if (HasFailure()) return;
  }
  std::remove(path.c_str());
}

TEST(WktLoadDifferential, LineLongerThanTheReadWindow) {
  // A 32,000-vertex ring prints to about 1.2 MB, more than a worker's 1 MiB
  // window, so the window must grow; at 2 to 8 threads range boundaries
  // fall inside the line.
  std::vector<Point> ring;
  for (int i = 0; i < 32000; ++i) {
    const double angle = 2 * std::numbers::pi * i / 32000;
    ring.push_back(Point{50 + 40 * std::cos(angle), 50 + 40 * std::sin(angle)});
  }
  const std::string long_line = ToWkt(Polygon(Ring(std::move(ring))));
  ASSERT_GT(long_line.size(), size_t{1} << 20);
  const std::string path = test::TempPath("long.wkt");
  Rng rng(3);
  for (const bool broken : {false, true}) {
    std::string bytes = "# header\n" + RandomLine(&rng) + "\n";
    bytes += broken ? long_line.substr(0, long_line.size() - 3) : long_line;
    bytes += "\n" + MakeLine(Kind::kRepairable, &rng) + "\n" +
             RandomLine(&rng) + "\n";
    test::WriteFileBytes(path, bytes);
    ExpectMatchesSerialLoop(path, LoadOptions{},
                            broken ? "truncated long line" : "long line");
  }
  // The long line last, without a final '\n'.
  test::WriteFileBytes(path, RandomLine(&rng) + "\n" + long_line);
  ExpectMatchesSerialLoop(path, LoadOptions{}, "long last line");
  std::remove(path.c_str());
}

TEST(WktLoadDifferential, EmptyAndTinyFiles) {
  // Fewer bytes or lines than workers: some ranges hold no line at all.
  const std::string path = test::TempPath("tiny.wkt");
  for (const std::string& bytes :
       {std::string(), std::string("\n"), std::string("\n\n\n"),
        std::string("\r"), std::string("#"),
        std::string("POLYGON ((0 0, 1 0, 1 1))"),
        std::string("POLYGON ((0 0, 1 0, 1 1))\n"),
        std::string("\nPOLYGON ((0 0, 1 0, 1 1))\n\nPOLYGON ((0 0, 2 0, 2 2))"),
        std::string("POLYGON ((0 0, 1 0, 1 1))\r\nPOLYGON ((0 0, 1 x, 1 1))"),
        std::string("x\ny\nz\n")}) {
    test::WriteFileBytes(path, bytes);
    ExpectMatchesSerialLoop(path, LoadOptions{},
                            "'" + bytes + "' (" + std::to_string(bytes.size()) +
                                " bytes)");
  }
  std::remove(path.c_str());
}

TEST(WktLoadDifferential, IssueCapAcrossRanges) {
  // Bad lines in every range: the first max_issues issues of the file are
  // kept, the rest only counted, whichever range found them.
  Rng rng(5);
  std::string bytes;
  for (int i = 0; i < 60; ++i) {
    bytes += MakeLine(i % 3 == 0 ? Kind::kMalformed
                      : i % 3 == 1 ? Kind::kRepairable
                                   : Kind::kValid,
                      &rng) +
             "\n";
  }
  const std::string path = test::TempPath("cap.wkt");
  test::WriteFileBytes(path, bytes);
  for (size_t cap = 0; cap <= 6; ++cap) {
    LoadOptions options;
    options.max_issues = cap;
    ExpectMatchesSerialLoop(path, options, "cap " + std::to_string(cap));
  }
  std::remove(path.c_str());
}

TEST(WktLoadDifferential, MissingFileAndDirectory) {
  ExpectMatchesSerialLoop(test::TempPath("does_not_exist.wkt"), LoadOptions{},
                          "missing file");
  ExpectMatchesSerialLoop(::testing::TempDir(), LoadOptions{}, "directory");
  Dataset dataset;
  const Status missing = LoadWktDataset(test::TempPath("does_not_exist.wkt"),
                                        "m", LoadOptions{}, &dataset);
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  const Status directory =
      LoadWktDataset(::testing::TempDir(), "d", LoadOptions{}, &dataset);
  EXPECT_EQ(directory.code(), StatusCode::kIoError);
  EXPECT_EQ(directory.message(), "read error");
}

}  // namespace
}  // namespace stj
