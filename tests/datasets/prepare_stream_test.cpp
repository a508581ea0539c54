#include "src/datasets/prepare.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numbers>
#include <set>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "src/datasets/dataset_io.h"
#include "src/datasets/scenarios.h"
#include "src/geometry/wkt.h"
#include "src/topology/shard_scheduler.h"
#include "src/util/exec_context.h"
#include "tests/test_support.h"

// Differential test of the streamed prepare. PrepareShardSets never holds
// its inputs: it spills each loaded polygon's record to an unnamed file,
// builds the lists a run of objects at a time from the spill, and writes
// the tiles from the spill and the compressed lists. Its shard sets must be
// the bytes BuildShardSet writes over LoadWktDataset's datasets and their
// lists, and its load accounting LoadWktDataset's, at every thread count
// and in both load modes, on inputs with CRLF lines, comments, blank lines,
// holes, a line longer than the loader's window, no final newline, and
// repairable, unrepairable and malformed lines. A prepare that fails leaves
// nothing.

namespace stj {
namespace {

constexpr uint32_t kGridOrder = 10;

std::string ReadBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}

/// The names in \p dir, recursively, relative to it.
std::set<std::string> Listing(const std::filesystem::path& dir) {
  std::set<std::string> names;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    names.insert(std::filesystem::relative(entry.path(), dir).string());
  }
  return names;
}

/// A polygon whose WKT is longer than the loader's 1 MiB window: a circle
/// of 30,000 vertices inside \p bounds.
std::string LongLine(const Box& bounds) {
  const Point c{(bounds.min.x + bounds.max.x) / 2,
                (bounds.min.y + bounds.max.y) / 2};
  const double r = std::min(bounds.Width(), bounds.Height()) / 7;
  std::vector<Point> ring;
  for (int k = 0; k < 30000; ++k) {
    const double a = 2 * std::numbers::pi * k / 30000;
    ring.push_back(Point{c.x + r * std::cos(a), c.y + r * std::sin(a)});
  }
  return ToWkt(Polygon(Ring(std::move(ring))));
}

/// \p dataset as a WKT file with every kind of line the loader accepts in
/// strict mode: a header comment, CRLF endings on every third line, blank
/// and comment lines, a polygon with a hole, a ring that repeats its
/// closing vertex, the long line, and no final newline. \p dirty adds a malformed, a repairable (duplicated
/// vertex) and an unrepairable (zero-area) line, which only a permissive
/// load accepts.
std::string WriteInput(const std::string& path, const Dataset& dataset,
                       bool dirty) {
  Box bounds;
  for (const SpatialObject& object : dataset.objects) {
    bounds.Expand(object.geometry.Bounds());
  }
  std::string text = "# " + dataset.name + "\n";
  const size_t n = dataset.objects.size();
  for (size_t i = 0; i < n; ++i) {
    text += ToWkt(dataset.objects[i].geometry);
    text += i % 3 == 0 ? "\r\n" : "\n";
    if (i == n / 5) text += "\n# comment\n\n";
    if (i == n / 3) text += LongLine(bounds) + "\n";
    if (i == n / 2) {
      const double x = bounds.min.x;
      const double y = bounds.min.y;
      const double w = bounds.Width() / 50;
      text += ToWkt(test::SquareWithHole(x, y, x + w, y + w, w / 4)) + "\r\n";
      // The closing vertex twice: the ring keeps one copy of it, and a
      // record of that ring must parse back to the same four vertices.
      const std::string a = std::to_string(x) + " " + std::to_string(y);
      text += "POLYGON ((" + a + ", " + std::to_string(x + w) + " " +
              std::to_string(y) + ", " + std::to_string(x + w) + " " +
              std::to_string(y + w) + ", " + a + ", " + a + "))\n";
    }
    if (dirty && i == n / 4) text += "POLYGON ((0 zero, 1 0, 1 1))\n";
    if (dirty && i == 2 * n / 3) {
      const double x = bounds.min.x + bounds.Width() / 2;
      const double y = bounds.min.y + bounds.Height() / 2;
      text += "POLYGON ((" + std::to_string(x) + " " + std::to_string(y) +
              ", " + std::to_string(x + 1) + " " + std::to_string(y) + ", " +
              std::to_string(x + 1) + " " + std::to_string(y) + ", " +
              std::to_string(x + 1) + " " + std::to_string(y + 1) + "))\n";
      text += "POLYGON ((5 5, 6 6, 5 5, 6 6))\n";
    }
  }
  text.pop_back();  // no final newline
  if (text.back() == '\r') text.pop_back();
  WriteBytes(path, text);
  return path;
}

std::string Render(const LoadReport& report) {
  std::string text = std::to_string(report.lines) + " lines, " +
                     std::to_string(report.accepted) + " accepted, " +
                     std::to_string(report.repaired) + " repaired, " +
                     std::to_string(report.skipped) + " skipped, " +
                     std::to_string(report.issues_dropped) + " dropped\n";
  for (const LineIssue& issue : report.issues) {
    text += std::to_string(issue.line) + " " +
            std::to_string(static_cast<int>(issue.action)) + " " +
            issue.reason + "\n";
  }
  return text;
}

CompressedAprilStore Compress(const std::vector<AprilApproximation>& april) {
  CompressedAprilStore cstore;
  for (const AprilApproximation& a : april) {
    const AprilView view(a);
    cstore.AppendEncoded(view.conservative, view.progressive);
  }
  return cstore;
}

class PrepareStream : public ::testing::Test {
 protected:
  ~PrepareStream() override {
    std::error_code ignored;
    std::filesystem::remove_all(root_, ignored);
  }

  void SetUp() override { std::filesystem::create_directories(root_); }

  std::string Path(const std::string& name) const {
    return (std::filesystem::path(root_) / name).string();
  }

  /// Prepares \p r_path and \p s_path both ways — streamed, and through
  /// LoadWktDataset, BuildAprilApproximations and BuildShardSet — at
  /// --threads 1, 2 and 4, and expects the same Status, load accounting and
  /// shard files. Returns the number of shard set pairs compared.
  int ExpectStreamMatchesInMemory(const std::string& r_path,
                                  const std::string& s_path, LoadMode mode) {
    int compared = 0;
    for (const unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << (mode == LoadMode::kStrict ? "strict" : "permissive")
                   << ", threads=" << threads);
      const std::string want_dir = Path("want");
      const std::string got_dir = Path("got");

      LoadOptions load;
      load.mode = mode;
      load.num_threads = threads;
      Dataset r;
      Dataset s;
      LoadReport r_report;
      LoadReport s_report;
      Status want = LoadWktDataset(r_path, "R", load, &r, &r_report);
      if (want.ok()) want = LoadWktDataset(s_path, "S", load, &s, &s_report);

      PrepareOptions options;
      options.mode = mode;
      options.grid_order = kGridOrder;
      options.num_threads = threads;
      PrepareReport report;
      const Status got =
          PrepareShardSets(r_path, s_path, got_dir, options, &report);
      EXPECT_EQ(got.ToString(), want.ToString());
      if (!want.ok() || !got.ok()) {
        EXPECT_FALSE(std::filesystem::exists(got_dir));
        continue;
      }
      EXPECT_EQ(Render(report.r.load), Render(r_report));
      EXPECT_EQ(Render(report.s.load), Render(s_report));
      EXPECT_EQ(report.r.objects, r.objects.size());
      EXPECT_EQ(report.s.objects, s.objects.size());
      EXPECT_EQ(report.r.vertices, r.TotalVertices());
      EXPECT_EQ(report.s.vertices, s.TotalVertices());
      EXPECT_EQ(report.r.built, r.objects.size());
      EXPECT_EQ(report.s.built, s.objects.size());

      Box bounds;
      for (const Dataset* dataset : {&r, &s}) {
        for (const SpatialObject& object : dataset->objects) {
          bounds.Expand(object.geometry.Bounds());
        }
      }
      const RasterGrid grid(bounds, kGridOrder);
      for (const auto& [sub, dataset] :
           {std::pair{"/r", &r}, std::pair{"/s", &s}}) {
        const CompressedAprilStore store =
            Compress(BuildAprilApproximations(*dataset, grid, threads));
        EXPECT_TRUE(BuildShardSet(want_dir + sub, dataset->objects, store,
                                  PartitionOptions{}, nullptr, nullptr,
                                  threads, &grid)
                        .ok());
      }

      const std::set<std::string> names = Listing(want_dir);
      EXPECT_EQ(Listing(got_dir), names);
      for (const std::string& name : names) {
        const std::filesystem::path want_file =
            std::filesystem::path(want_dir) / name;
        if (std::filesystem::is_directory(want_file)) continue;
        EXPECT_TRUE(ReadBytes(std::filesystem::path(got_dir) / name) ==
                    ReadBytes(want_file))
            << name << " differs";
      }
      std::filesystem::remove_all(want_dir);
      std::filesystem::remove_all(got_dir);
      if (HasFailure()) break;
      ++compared;
    }
    return compared;
  }

  /// Builds R and S of \p scenario at \p scale into clean and dirty WKT
  /// files and runs the sweep: strict and permissive on the clean pair,
  /// permissive on the dirty pair, and strict on the dirty pair, which
  /// both ways fail at the same line.
  void Sweep(const char* r_name, const char* s_name, double scale) {
    const Dataset r = BuildDataset(r_name, scale, 7);
    const Dataset s = BuildDataset(s_name, scale, 7);
    const std::string r_clean = WriteInput(Path("r.wkt"), r, false);
    const std::string s_clean = WriteInput(Path("s.wkt"), s, false);
    const std::string r_dirty = WriteInput(Path("r_dirty.wkt"), r, true);
    const std::string s_dirty = WriteInput(Path("s_dirty.wkt"), s, true);
    EXPECT_EQ(ExpectStreamMatchesInMemory(r_clean, s_clean, LoadMode::kStrict),
              3);
    EXPECT_EQ(
        ExpectStreamMatchesInMemory(r_clean, s_clean, LoadMode::kPermissive),
        3);
    EXPECT_EQ(
        ExpectStreamMatchesInMemory(r_dirty, s_dirty, LoadMode::kPermissive),
        3);
    EXPECT_EQ(ExpectStreamMatchesInMemory(r_clean, s_dirty, LoadMode::kStrict),
              0);
    // The dirty files exercise both permissive outcomes; the ring with its
    // closing vertex twice is repaired too, and is kept whole only by a
    // strict load.
    LoadOptions permissive;
    permissive.mode = LoadMode::kPermissive;
    Dataset loaded;
    LoadReport report;
    ASSERT_TRUE(
        LoadWktDataset(s_dirty, "S", permissive, &loaded, &report).ok());
    EXPECT_EQ(report.repaired, 2u);
    EXPECT_EQ(report.skipped, 2u);
  }

  std::string root_ = test::TempPath("prepare_stream");
};

TEST_F(PrepareStream, TcTzMatchesBuildShardSet) { Sweep("TC", "TZ", 0.1); }

// OPE at 0.05 spills about 7 MB: each loader range flushes its spill
// buffer more than once, and S's runs of objects finish out of order on
// several workers.
TEST_F(PrepareStream, ObeOpeMatchesBuildShardSet) {
  Sweep("OBE", "OPE", 0.05);
}

TEST_F(PrepareStream, OleOpeMatchesBuildShardSet) {
  Sweep("OLE", "OPE", 0.03);
}

// A prepare that fails — at a strict parse error on S's last line, on a
// missing S, at a tripped context, at a tile it cannot write — returns the
// cause and leaves no manifest, no spill file and no directory it created:
// the parent directory lists what it listed before.
TEST_F(PrepareStream, FailuresLeaveNothingBehind) {
  const Dataset r = BuildDataset("OLE", 0.02, 11);
  const Dataset s = BuildDataset("OPE", 0.02, 11);
  const std::string r_path = WriteInput(Path("r.wkt"), r, false);
  const std::string s_path = WriteInput(Path("s.wkt"), s, false);
  const std::string bad_path = Path("bad.wkt");
  WriteBytes(bad_path, ReadBytes(s_path) + "\nPOLYGON ((0 0, 1 0");
  const std::set<std::string> before = Listing(root_);
  const std::string out = Path("out");
  PrepareOptions options;
  options.grid_order = kGridOrder;
  options.num_threads = 4;
  PrepareReport report;

  Status st = PrepareShardSets(r_path, bad_path, out, options, &report);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.ToString().find("bad.wkt:"), std::string::npos);
  EXPECT_TRUE(report.r.loaded);
  EXPECT_FALSE(report.s.loaded);
  EXPECT_EQ(Listing(root_), before);

  st = PrepareShardSets(r_path, Path("missing.wkt"), out, options, &report);
  EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.ToString();
  EXPECT_EQ(Listing(root_), before);

  // A trip at each stage: in the load, in the build, in the writer (the
  // last check-in is the writer's, on S's tiles).
  // The hook runs on the workers: count with an atomic.
  std::atomic<uint64_t> counted{0};
  {
    ExecContext counting;
    counting.SetCheckInHook(
        [&counted](ExecContext&, uint64_t) { counted.fetch_add(1); });
    options.exec = &counting;
    ASSERT_TRUE(
        PrepareShardSets(r_path, s_path, Path("ok"), options, &report).ok());
    std::filesystem::remove_all(Path("ok"));
  }
  const uint64_t checkins = counted.load();
  ASSERT_GT(checkins, 4u);
  for (const uint64_t trip_at : {uint64_t{1}, checkins / 4, checkins / 2,
                                 checkins - 1, checkins}) {
    SCOPED_TRACE(::testing::Message() << "trip at check-in " << trip_at
                                      << " of " << checkins);
    ExecContext exec;
    exec.SetCheckInHook([trip_at](ExecContext& ctx, uint64_t ordinal) {
      if (ordinal == trip_at) ctx.RequestStop(StopCause::kDeadlineExceeded);
    });
    options.exec = &exec;
    st = PrepareShardSets(r_path, s_path, Path("deep/nested/out"), options,
                          &report);
    EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
    EXPECT_EQ(Listing(root_), before);
  }
  options.exec = nullptr;

  // S's first tile cannot be written: the directory at its path stays, and
  // nothing else.
  std::filesystem::create_directories(out + "/s/tile_000000.shard");
  const std::set<std::string> blocked = Listing(root_);
  st = PrepareShardSets(r_path, s_path, out, options, &report);
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  EXPECT_NE(st.ToString().find("tile_000000.shard"), std::string::npos);
  EXPECT_EQ(Listing(root_), blocked);
}

// A prepare that stops before it writes a side leaves that side's set as
// it was: a trip in R's build keeps an earlier pair in the directory whole.
TEST_F(PrepareStream, StopBeforeAnyWriteKeepsTheOldPair) {
  const Dataset r = BuildDataset("OLE", 0.02, 11);
  const Dataset s = BuildDataset("OPE", 0.02, 11);
  const std::string r_path = WriteInput(Path("r.wkt"), r, false);
  const std::string s_path = WriteInput(Path("s.wkt"), s, false);
  const std::string out = Path("out");
  PrepareOptions options;
  options.grid_order = kGridOrder;
  options.num_threads = 1;  // the first charge is R's first list
  PrepareReport report;
  ASSERT_TRUE(PrepareShardSets(r_path, s_path, out, options, &report).ok());
  const std::set<std::string> before = Listing(root_);
  const std::string manifest = ReadBytes(out + "/r/manifest.stj");

  ExecContext exec;
  exec.SetChargeHook(
      [](ExecContext&, size_t, uint64_t ordinal) { return ordinal != 1; });
  options.exec = &exec;
  options.grid_order = kGridOrder + 2;
  const Status st = PrepareShardSets(r_path, s_path, out, options, &report);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_EQ(report.r.write.tiles, 0u);
  EXPECT_EQ(Listing(root_), before);
  EXPECT_EQ(ReadBytes(out + "/r/manifest.stj"), manifest);
  for (const char* side : {"/r", "/s"}) {
    ShardSet set;
    const Status open = ShardSet::Open(out + side, &set);
    EXPECT_TRUE(open.ok()) << side << ": " << open.ToString();
    EXPECT_EQ(set.RasterGridRecord().order, kGridOrder);
  }
}

// The budget covers what the prepare holds: every charge is given back by
// the return, and a charge refused anywhere — an object's flat lists, a
// run's compressed lists, the writer's buffers — stops it with nothing
// written.
TEST_F(PrepareStream, BudgetIsChargedAndGivenBack) {
  const Dataset r = BuildDataset("OLE", 0.02, 11);
  const Dataset s = BuildDataset("OPE", 0.02, 11);
  const std::string r_path = WriteInput(Path("r.wkt"), r, false);
  const std::string s_path = WriteInput(Path("s.wkt"), s, false);
  const std::set<std::string> before = Listing(root_);
  PrepareOptions options;
  options.grid_order = kGridOrder;
  options.num_threads = 1;  // one charge order
  PrepareReport report;

  ExecContext budgeted;
  const size_t budget = size_t{1} << 30;
  budgeted.SetMemoryBudget(budget);
  options.exec = &budgeted;
  ASSERT_TRUE(PrepareShardSets(r_path, s_path, Path("ok"), options, &report)
                  .ok());
  EXPECT_EQ(budgeted.budget_remaining(), static_cast<int64_t>(budget));
  // Both writers charged at least their two 1 MiB buffers.
  EXPECT_GE(budgeted.charged_bytes(), uint64_t{4} << 20);
  std::filesystem::remove_all(Path("ok"));

  std::atomic<uint64_t> counted{0};
  {
    ExecContext counting;
    counting.SetChargeHook([&counted](ExecContext&, size_t, uint64_t) {
      counted.fetch_add(1);
      return true;
    });
    options.exec = &counting;
    ASSERT_TRUE(
        PrepareShardSets(r_path, s_path, Path("ok"), options, &report).ok());
    std::filesystem::remove_all(Path("ok"));
  }
  const uint64_t charges = counted.load();
  ASSERT_GT(charges, 4u);
  for (const uint64_t refuse : {uint64_t{1}, charges / 2, charges - 1,
                                charges}) {
    SCOPED_TRACE(::testing::Message() << "charge " << refuse << " of "
                                      << charges << " refused");
    ExecContext exec;
    exec.SetChargeHook([refuse](ExecContext&, size_t, uint64_t ordinal) {
      return ordinal != refuse;
    });
    options.exec = &exec;
    const Status st =
        PrepareShardSets(r_path, s_path, Path("out"), options, &report);
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
    EXPECT_EQ(Listing(root_), before);
  }
}

}  // namespace
}  // namespace stj
