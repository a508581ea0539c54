#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/datasets/scenarios.h"
#include "src/util/status.h"

namespace stj {

/// Plain-text dataset persistence: one WKT POLYGON per line. This is the
/// interchange format the paper's artifact uses for its TIGER/OSM inputs;
/// it lets externally produced polygon data flow through the pipeline and
/// makes the synthetic datasets inspectable with standard GIS tooling.

/// Writes every object of \p dataset to \p path, one WKT polygon per line,
/// after a '#' header line. Slices of consecutive objects, cut by vertex
/// count, are formatted on \p num_threads workers (0 = hardware
/// concurrency) and written in object order, so the file's bytes do not
/// depend on the thread count and the text held at a time does not grow
/// with the dataset. Returns false on I/O error.
bool SaveWktDataset(const std::string& path, const Dataset& dataset,
                    unsigned num_threads = 0);

/// How LoadWktDataset reacts to lines that fail to parse or validate.
enum class LoadMode : uint8_t {
  /// The whole load fails on the first bad line — one that does not parse,
  /// or a polygon with a ring of zero area (ValidateRingAreas) — and the
  /// Status names the file, the line number and, for a parse error, the
  /// byte offset of the problem.
  kStrict,
  /// Bad lines are repaired when possible (RepairPolygon) and skipped
  /// otherwise; the LoadReport records every decision. Real-world polygon
  /// feeds (TIGER/OSM extracts) routinely contain a few mangled rows, and
  /// one bad row must not discard millions of good ones.
  kPermissive,
};

struct LoadOptions {
  LoadMode mode = LoadMode::kStrict;
  /// Additionally run ValidatePolygon (O(n^2) self-intersection check) on
  /// every parsed polygon. Strict mode fails on an invalid polygon;
  /// permissive mode repairs or skips it. Off by default — it dominates load
  /// time on large inputs.
  bool validate = false;
  /// Cap on per-line issues retained in LoadReport::issues; counts beyond it
  /// are still tallied in the aggregate counters.
  size_t max_issues = 64;
  /// Workers that parse byte ranges of the file (0 = hardware concurrency).
  /// The objects, ids, LoadReport and Status do not depend on it.
  unsigned num_threads = 0;
};

/// What happened to one problematic input line.
struct LineIssue {
  enum class Action : uint8_t {
    kRejected,  ///< Strict mode: this line aborted the load.
    kRepaired,  ///< Permissive: loaded after structural repair.
    kSkipped,   ///< Permissive: dropped.
  };
  uint64_t line = 0;  ///< 1-based line number in the file.
  Action action = Action::kSkipped;
  std::string reason;
};

/// Per-load accounting: every non-comment line lands in exactly one of
/// accepted / repaired / skipped (strict loads abort instead of skipping).
struct LoadReport {
  uint64_t lines = 0;     ///< Non-comment, non-blank lines seen.
  uint64_t accepted = 0;  ///< Lines loaded verbatim.
  uint64_t repaired = 0;  ///< Lines loaded after repair (permissive only).
  uint64_t skipped = 0;   ///< Lines dropped (permissive only).
  std::vector<LineIssue> issues;  ///< First LoadOptions::max_issues issues.
  uint64_t issues_dropped = 0;    ///< Issues beyond the cap (tallied only).
};

/// Reads a WKT-per-line file into a dataset named \p name. Blank lines and
/// lines starting with '#' are skipped; a '\r' before the '\n' is parsed as
/// whitespace, and a last line without '\n' still counts. Object ids are
/// assigned in file order over the lines actually loaded. On failure *out
/// is cleared and the Status carries the file, 1-based line, and byte
/// offset of the problem: the earliest bad line in strict mode, or
/// NOT_FOUND / IO_ERROR when the file cannot be opened or read. \p report
/// (optional) receives per-line accounting in either mode.
///
/// A regular file is split into up to LoadOptions::num_threads byte ranges
/// that are parsed concurrently and merged in file order; anything else (a
/// pipe) is read as one range.
Status LoadWktDataset(const std::string& path, const std::string& name,
                      const LoadOptions& options, Dataset* out,
                      LoadReport* report = nullptr);

/// Receives the objects a ranged WKT load accepts (StreamWktDataset). The
/// file is cut into byte ranges parsed concurrently, one worker each;
/// concatenating the ranges' objects in range order gives the objects in
/// file order, which is id order.
class WktObjectSink {
 public:
  virtual ~WktObjectSink() = default;
  /// Called once, before any Accept, with the number of ranges.
  virtual void StartRanges(size_t ranges) = 0;
  /// Takes the next accepted polygon of range \p range, which may be moved
  /// from. Called on that range's worker, so calls for different ranges run
  /// concurrently while one range's come in file order. A non-ok Status ends
  /// the range, and so the load, with that Status.
  virtual Status Accept(size_t range, Polygon* polygon) = 0;
};

/// LoadWktDataset's loader with each accepted object handed to \p sink
/// instead of kept, so the file's objects need never be resident at once.
/// The Status and \p report are LoadWktDataset's; when the load fails, the
/// sink has seen an unspecified part of the file's objects.
Status StreamWktDataset(const std::string& path, const LoadOptions& options,
                        WktObjectSink* sink, LoadReport* report = nullptr);

/// Strict-mode convenience wrapper. Returns false on I/O error or if any
/// non-comment line fails to parse; in that case *out is left cleared.
bool LoadWktDataset(const std::string& path, const std::string& name,
                    Dataset* out);

}  // namespace stj
