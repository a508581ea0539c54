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
/// after a '#' header line. Slices of 1,024 objects are formatted on
/// \p num_threads workers (0 = hardware concurrency) and written in object
/// order, so the file's bytes do not depend on the thread count. Returns
/// false on I/O error.
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

/// Strict-mode convenience wrapper. Returns false on I/O error or if any
/// non-comment line fails to parse; in that case *out is left cleared.
bool LoadWktDataset(const std::string& path, const std::string& name,
                    Dataset* out);

}  // namespace stj
