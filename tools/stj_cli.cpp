// stj_cli — command-line front end for the stjoin library, mirroring the
// workflow of the paper's artifact repository:
//
//   stj_cli generate <dataset> <out.wkt> [--scale=X] [--seed=S]
//                    [--threads=T]
//       Generate one of the ten synthetic datasets (TL, TW, TC, TZ, OBE,
//       OLE, OPE, OBN, OLN, OPN) as one WKT polygon per line. --scale takes
//       a number greater than 0 (default 1) and --seed an integer from 0 to
//       2^63 - 1 (default 7). --threads formats the polygons on T workers;
//       the file's bytes do not depend on it.
//
//   stj_cli april <in.wkt> <out.april> [--grid-order=N] [--threads=T]
//                 [--permissive]
//       Precompute APRIL P/C interval lists for every polygon of a WKT file
//       (grid over the file's own bounds) and store them as an APRIL
//       version-3 file: framed, checksummed records in the block codec.
//       --grid-order takes 1 to 16 (default 12). --threads fans the load
//       and the build out over T workers (0 = all cores, at most 1024); the
//       output is identical for every thread count.
//
//   stj_cli aprilcheck <in.april | shard-dir | shard-dir/manifest.stj>
//       Verify an APRIL file record by record and report corruption, then
//       run the deep codec audit on every usable record (block-header
//       consistency, P inside C, re-encode round-trip byte equality). Given
//       a shard-set directory (or its manifest.stj), audits the shard set
//       instead: manifest frame, every tile's header + segment table, and
//       every segment's payload checksum, with per-tile corruption isolation
//       mirroring the per-record behaviour of APRIL files.
//
//   stj_cli relate <wkt-polygon-1> <wkt-polygon-2>
//       Print the DE-9IM matrix and the most specific relation of two
//       polygons given inline as WKT strings.
//
//   stj_cli join <r.wkt> <s.wkt> [--method=pc|st2|op2|april]
//                [--grid-order=N] [--predicate=<relation>] [--threads=T]
//                [--time-stages] [--permissive]
//                [--deadline-ms=D] [--max-memory-mb=B]
//                [--shard-dir=D] [--shard-cache-mb=M] [--partition-units=U]
//       Run the full topology join between two WKT files: MBR filter join,
//       then find-relation (default) or a relate_p predicate join. --grid-order
//       and --threads take the same ranges as for `april`, and every flag is
//       checked before the inputs are read: a numeric value that is not a
//       number in its range exits 2, naming the range. Prints
//       one "r_index s_index relation" line per non-disjoint pair, sorted
//       by (r, s) — the same bytes at every --threads value — plus a
//       summary to stderr. Each worker keeps a 32 MB prepared-geometry
//       cache that amortises refinement index construction across pairs.
//       --time-stages enables the per-stage timers and prints a stage
//       telemetry summary (filter/refine seconds, decoded cache counters).
//       --deadline-ms (0 = none, at most 2^31 - 1) bounds the query's wall
//       time and --max-memory-mb (0 = none) its APRIL/tile-table memory;
//       either flag makes the run cancellable (Ctrl-C stops it
//       cooperatively too). A tripped
//       run still prints every pair that was fully verified before the cut,
//       reports how much of the join was answered, and exits with the
//       matching code below.
//
//       --shard-dir=D switches the join to the out-of-core tile-sharded
//       path: both inputs are cost-balanced into tiles (--partition-units
//       targets computational units per tile; 0 = auto), persisted as
//       mmap-backed shard sets under D/r and D/s with the tiles written on
//       the --threads workers, and then freed from memory. The tile pairs
//       are joined on the --threads workers, each claiming whole tasks, with
//       about --shard-cache-mb (at least 1, default 256) of shards resident
//       beyond the pinned shards of the running tasks; each worker decodes
//       the compressed records it filters through a per-worker
//       decoded-record cache. The output is byte-identical to the in-memory
//       join's at every --threads. Find-relation only — --predicate cannot
//       be combined with it.
//
// Input files are loaded on --threads workers, each parsing a byte range of
// the file, and each load prints a "[load] <path>: <n> objects, <v>
// vertices, <MB> MB in <s>s" line to stderr. Loads are strict by default:
// the first malformed line (including a nan or inf coordinate) aborts with
// a message naming the file, line, and byte offset, and so does the first
// polygon with a ring of zero area (naming the file and line; `relate`
// rejects such an argument too). With --permissive, bad
// lines are repaired or skipped (reported to stderr) and the run continues
// on the clean remainder. Neither result depends on --threads.
//
// Exit codes: 0 success; 2 usage error; 3 missing/unreadable/unwritable
// file; 4 malformed content (WKT parse error, APRIL structural corruption);
// 5 unknown dataset/method/predicate name; 6 (aprilcheck) file loads
// but contains corrupt or missing records; 7 query deadline exceeded
// (--deadline-ms); 8 query cancelled (SIGINT); 9 query memory budget
// exhausted (--max-memory-mb); 10 (aprilcheck) APRIL file whose frames
// verify but whose block codec fails validation — a writer bug or targeted
// corruption rather than bit rot; 11 (aprilcheck) shard set whose manifest
// loads but with one or more corrupt tiles (failed segment checksum,
// structural damage, or a manifest/file disagreement).

#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <optional>
#include <string>
#include <system_error>

#include "src/datasets/dataset_io.h"
#include "src/datasets/scenarios.h"
#include "src/de9im/relate_engine.h"
#include "src/geometry/validate.h"
#include "src/geometry/wkt.h"
#include "src/raster/april_io.h"
#include "src/raster/grid.h"
#include "src/raster/shard_io.h"
#include "src/topology/parallel.h"
#include "src/topology/shard_scheduler.h"
#include "src/util/exec_context.h"
#include "src/util/status.h"
#include "src/util/timer.h"

namespace {

using namespace stj;

enum ExitCode : int {
  kExitOk = 0,
  kExitUsage = 2,
  kExitIo = 3,
  kExitBadData = 4,
  kExitBadName = 5,
  kExitDegraded = 6,
  kExitDeadline = 7,
  kExitCancelled = 8,
  kExitBudget = 9,
  kExitCodecCorrupt = 10,
  kExitShardCorrupt = 11,
};

/// Maps a library Status to the documented exit codes.
int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return kExitOk;
    case StatusCode::kNotFound:
    case StatusCode::kIoError: return kExitIo;
    case StatusCode::kInvalidArgument:
    case StatusCode::kDataLoss: return kExitBadData;
    case StatusCode::kDeadlineExceeded: return kExitDeadline;
    case StatusCode::kCancelled: return kExitCancelled;
    case StatusCode::kResourceExhausted: return kExitBudget;
    case StatusCode::kFailedPrecondition:
    case StatusCode::kInternal: return 1;
  }
  return 1;
}

int FailWith(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return ExitCodeFor(status);
}

struct Flags {
  double scale = 1.0;
  uint64_t seed = 7;
  uint32_t grid_order = 12;
  std::string method = "pc";
  std::string predicate;
  unsigned threads = 0;
  bool time_stages = false;
  bool permissive = false;
  uint64_t deadline_ms = 0;    ///< 0 = no deadline.
  size_t max_memory_mb = 0;    ///< 0 = no memory budget.
  std::string shard_dir;       ///< Non-empty = out-of-core sharded join.
  size_t shard_cache_mb = 256;
  uint64_t partition_units = 0;  ///< Units per tile; 0 = auto.

  bool Bounded() const { return deadline_ms != 0 || max_memory_mb != 0; }
};

/// Most workers --threads accepts; more only oversubscribes the cores.
constexpr long long kMaxThreads = 1024;
/// Largest --max-memory-mb / --shard-cache-mb: the byte count must fit
/// ExecContext's signed budget counter.
constexpr long long kMaxMegabytes = INT64_MAX >> 20;
/// Largest --deadline-ms: about 24 days, far from the clock's overflow.
constexpr long long kMaxDeadlineMs = INT32_MAX;

/// Parses the decimal value of \p flag, which must lie in [lo, hi]; exits
/// with the usage code, naming the range, otherwise.
long long ParseBounded(const char* flag, const char* value, long long lo,
                       long long hi) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || errno != 0 || parsed < lo ||
      parsed > hi) {
    std::fprintf(stderr,
                 "%s must be an integer from %lld to %lld, got '%s'\n", flag,
                 lo, hi, value);
    std::exit(kExitUsage);
  }
  return parsed;
}

/// Parses --scale: a finite number greater than 0, or the usage exit.
double ParseScale(const char* value) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || errno != 0 || !std::isfinite(parsed) ||
      parsed <= 0) {
    std::fprintf(stderr,
                 "--scale must be a finite number greater than 0, got '%s'\n",
                 value);
    std::exit(kExitUsage);
  }
  return parsed;
}

Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      flags.scale = ParseScale(arg + 8);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      flags.seed = static_cast<uint64_t>(
          ParseBounded("--seed", arg + 7, 0, INT64_MAX));
    } else if (std::strncmp(arg, "--grid-order=", 13) == 0) {
      flags.grid_order = static_cast<uint32_t>(
          ParseBounded("--grid-order", arg + 13, 1, kMaxGridOrder));
    } else if (std::strncmp(arg, "--method=", 9) == 0) {
      flags.method = arg + 9;
    } else if (std::strncmp(arg, "--predicate=", 12) == 0) {
      flags.predicate = arg + 12;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      flags.threads = static_cast<unsigned>(
          ParseBounded("--threads", arg + 10, 0, kMaxThreads));
    } else if (std::strcmp(arg, "--time-stages") == 0) {
      flags.time_stages = true;
    } else if (std::strcmp(arg, "--permissive") == 0) {
      flags.permissive = true;
    } else if (std::strncmp(arg, "--deadline-ms=", 14) == 0) {
      flags.deadline_ms = static_cast<uint64_t>(
          ParseBounded("--deadline-ms", arg + 14, 0, kMaxDeadlineMs));
    } else if (std::strncmp(arg, "--max-memory-mb=", 16) == 0) {
      flags.max_memory_mb = static_cast<size_t>(
          ParseBounded("--max-memory-mb", arg + 16, 0, kMaxMegabytes));
    } else if (std::strncmp(arg, "--shard-dir=", 12) == 0) {
      flags.shard_dir = arg + 12;
    } else if (std::strncmp(arg, "--shard-cache-mb=", 17) == 0) {
      flags.shard_cache_mb = static_cast<size_t>(
          ParseBounded("--shard-cache-mb", arg + 17, 1, kMaxMegabytes));
    } else if (std::strncmp(arg, "--partition-units=", 18) == 0) {
      flags.partition_units = static_cast<uint64_t>(
          ParseBounded("--partition-units", arg + 18, 0, INT64_MAX));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      std::exit(kExitUsage);
    }
  }
  return flags;
}

std::optional<Method> ParseMethod(const std::string& name) {
  if (name == "st2") return Method::kST2;
  if (name == "op2") return Method::kOP2;
  if (name == "april") return Method::kApril;
  if (name == "pc") return Method::kPC;
  return std::nullopt;
}

std::optional<de9im::Relation> ParseRelation(const std::string& name) {
  for (int i = 0; i < de9im::kNumRelations; ++i) {
    const auto rel = static_cast<de9im::Relation>(i);
    if (name == ToString(rel)) return rel;
  }
  return std::nullopt;
}

int Usage() {
  std::fprintf(stderr,
               "usage: stj_cli <generate|april|aprilcheck|relate|join> ... "
               "(see source header for details)\n");
  return kExitUsage;
}

/// Encodes a set of approximations into the blocked codec, keeping corrupt
/// entries as placeholders (shared by `april` and the sharded join path,
/// which both persist the compressed form).
CompressedAprilStore CompressApproximations(
    const std::vector<AprilApproximation>& april) {
  CompressedAprilStore cstore;
  cstore.Reserve(april.size(), /*blocks=*/0, /*payload_bytes=*/0);
  for (const AprilApproximation& a : april) {
    if (!a.usable) {
      cstore.AppendCorruptPlaceholder();
      continue;
    }
    const AprilView view(a);
    cstore.AppendEncoded(view.conservative, view.progressive);
  }
  return cstore;
}

/// The grid of \p order over the joint bounds of \p inputs.
RasterGrid GridOver(std::initializer_list<const Dataset*> inputs,
                    uint32_t order) {
  Box bounds;
  for (const Dataset* dataset : inputs) {
    for (const SpatialObject& object : dataset->objects) {
      bounds.Expand(object.geometry.Bounds());
    }
  }
  return RasterGrid(bounds, order);
}

/// Loads a WKT dataset on --threads workers honouring --permissive; on
/// success prints a `[load]` summary line plus any repairs/skips, on failure
/// returns the precise Status.
Status LoadInput(const std::string& path, const std::string& name,
                 const Flags& flags, Dataset* out) {
  LoadOptions options;
  options.mode = flags.permissive ? LoadMode::kPermissive : LoadMode::kStrict;
  options.num_threads = flags.threads;
  LoadReport report;
  Timer timer;
  Status status = LoadWktDataset(path, name, options, out, &report);
  if (!status.ok()) return status;
  std::error_code size_error;
  const uintmax_t bytes = std::filesystem::file_size(path, size_error);
  std::fprintf(stderr, "[load] %s: %zu objects, %zu vertices, %.1f MB in "
               "%.2fs\n",
               path.c_str(), out->objects.size(), out->TotalVertices(),
               size_error ? 0.0 : static_cast<double>(bytes) / 1e6,
               timer.ElapsedSeconds());
  if (report.repaired != 0 || report.skipped != 0) {
    std::fprintf(stderr,
                 "[load] %s: %llu lines — %llu accepted, %llu repaired, "
                 "%llu skipped\n",
                 path.c_str(), static_cast<unsigned long long>(report.lines),
                 static_cast<unsigned long long>(report.accepted),
                 static_cast<unsigned long long>(report.repaired),
                 static_cast<unsigned long long>(report.skipped));
    for (const LineIssue& issue : report.issues) {
      const char* action =
          issue.action == LineIssue::Action::kRepaired ? "repaired" : "skipped";
      std::fprintf(stderr, "[load]   %s:%llu: %s (%s)\n", path.c_str(),
                   static_cast<unsigned long long>(issue.line),
                   issue.reason.c_str(), action);
    }
    if (report.issues_dropped != 0) {
      std::fprintf(stderr, "[load]   ... and %llu more issues\n",
                   static_cast<unsigned long long>(report.issues_dropped));
    }
  }
  return status;
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 4) return Usage();
  const Flags flags = ParseFlags(argc, argv, 4);
  const Dataset dataset = BuildDataset(argv[2], flags.scale, flags.seed);
  if (dataset.objects.empty()) {
    std::fprintf(stderr, "unknown dataset '%s' (expected one of", argv[2]);
    for (const std::string& name : DatasetNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return kExitBadName;
  }
  if (!SaveWktDataset(argv[3], dataset, flags.threads)) {
    return FailWith(Status::IoError("cannot write dataset").WithFile(argv[3]));
  }
  std::fprintf(stderr, "wrote %zu polygons (%zu vertices) to %s\n",
               dataset.objects.size(), dataset.TotalVertices(), argv[3]);
  return kExitOk;
}

int CmdApril(int argc, char** argv) {
  if (argc < 4) return Usage();
  const Flags flags = ParseFlags(argc, argv, 4);
  Dataset dataset;
  if (Status st = LoadInput(argv[2], "input", flags, &dataset); !st.ok()) {
    return FailWith(st);
  }
  const RasterGrid grid = GridOver({&dataset}, flags.grid_order);
  Timer timer;
  const std::vector<AprilApproximation> april =
      BuildAprilApproximations(dataset, grid, flags.threads);
  const double preprocess_seconds = timer.ElapsedSeconds();
  if (!SaveAprilStoreBlocked(argv[3], CompressApproximations(april))) {
    return FailWith(
        Status::IoError("cannot write APRIL file").WithFile(argv[3]));
  }
  size_t bytes = 0;
  for (const AprilApproximation& a : april) bytes += a.ByteSize();
  std::fprintf(stderr,
               "wrote %zu approximations (%.2f MB of intervals) to %s "
               "(version 3, preprocess %.2fs)\n",
               april.size(), static_cast<double>(bytes) / 1e6, argv[3],
               preprocess_seconds);
  return kExitOk;
}

/// aprilcheck over a shard set: the full integrity audit (every segment's
/// payload checksum is read and verified). Tiles fail independently; any
/// corrupt tile yields the distinct shard-corruption exit code.
int CheckShardSet(const std::string& dir) {
  ShardCheckReport report;
  if (Status st = ValidateShardSet(dir, &report); !st.ok()) {
    return FailWith(st);
  }
  std::fprintf(stderr,
               "%s: shard set, %u tiles, %llu segments verified (%.2f MB), "
               "%u corrupt\n",
               dir.c_str(), report.tiles,
               static_cast<unsigned long long>(report.segments_checked),
               static_cast<double>(report.bytes_checked) / 1e6,
               report.tiles_corrupt);
  for (const std::string& issue : report.issues) {
    std::fprintf(stderr, "  %s\n", issue.c_str());
  }
  if (report.issues_dropped != 0) {
    std::fprintf(stderr, "  ... and %llu more issues\n",
                 static_cast<unsigned long long>(report.issues_dropped));
  }
  return report.Corrupt() ? kExitShardCorrupt : kExitOk;
}

int CmdAprilCheck(int argc, char** argv) {
  if (argc < 3) return Usage();
  if (std::string shard_dir; ResolveShardSetDir(argv[2], &shard_dir)) {
    return CheckShardSet(shard_dir);
  }
  CompressedAprilStore cstore;
  AprilLoadReport report;
  const Status status = LoadCompressedAprilStore(argv[2], &cstore, &report);
  if (!status.ok()) return FailWith(status);
  std::fprintf(stderr,
               "%s: version %u (blocked), %llu declared, %llu verified, "
               "%llu corrupt, %llu codec-corrupt%s\n",
               argv[2], report.version,
               static_cast<unsigned long long>(report.declared_count),
               static_cast<unsigned long long>(report.loaded),
               static_cast<unsigned long long>(report.corrupt),
               static_cast<unsigned long long>(report.codec_corrupt),
               report.truncated ? ", TRUNCATED" : "");
  for (const uint64_t index : report.corrupt_indices) {
    std::fprintf(stderr, "  corrupt record: object %llu\n",
                 static_cast<unsigned long long>(index));
  }
  // Deep codec audit of every usable record, beyond what the loader already
  // validated: P inside C and re-encode round-trip byte equality, which
  // catches valid-but-non-minimal varint encodings a tampered writer could
  // produce.
  uint64_t deep_bad = 0;
  for (size_t i = 0; i < cstore.Count(); ++i) {
    if (!cstore.Usable(i)) continue;
    if (const std::string err = cstore.DeepValidateRecord(i); !err.empty()) {
      ++deep_bad;
      std::fprintf(stderr, "  codec corrupt record: object %zu: %s\n", i,
                   err.c_str());
    }
  }
  if (deep_bad != 0) {
    std::fprintf(stderr, "  deep codec audit: %llu record(s) failed\n",
                 static_cast<unsigned long long>(deep_bad));
  }
  if (report.codec_corrupt != 0 || deep_bad != 0) return kExitCodecCorrupt;
  return report.Degraded() ? kExitDegraded : kExitOk;
}

/// Parses a `relate` argument under the strict load rule: it must parse and
/// have no ring of zero area.
Result<Polygon> ParseRelateArgument(const char* wkt, const char* name) {
  Result<Polygon> polygon = ParseWktPolygon(wkt);
  if (!polygon.has_value()) return Status(polygon.status()).WithFile(name);
  const ValidationResult areas = ValidateRingAreas(*polygon);
  if (!areas.valid) {
    return Status::InvalidArgument("degenerate polygon: " + areas.reason)
        .WithFile(name);
  }
  return polygon;
}

int CmdRelate(int argc, char** argv) {
  if (argc < 4) return Usage();
  const Result<Polygon> a = ParseRelateArgument(argv[2], "<argument 1>");
  if (!a.has_value()) return FailWith(a.status());
  const Result<Polygon> b = ParseRelateArgument(argv[3], "<argument 2>");
  if (!b.has_value()) return FailWith(b.status());
  const de9im::Matrix matrix = de9im::RelateMatrix(*a, *b);
  std::printf("DE-9IM:   %s\n", matrix.ToString().c_str());
  std::printf("relation: %s\n",
              ToString(de9im::MostSpecificRelation(matrix)));
  return kExitOk;
}

/// The join command's ExecContext, reachable from the SIGINT handler. The
/// handler only performs a lock-free CAS plus clock_gettime (both
/// async-signal-safe), which is exactly what cooperative cancellation is
/// for: the workers notice at their next check-in and stop at a pair
/// boundary.
ExecContext* g_join_exec = nullptr;

void HandleInterrupt(int) {
  if (g_join_exec != nullptr) g_join_exec->Cancel();
  std::signal(SIGINT, SIG_DFL);  // a second Ctrl-C kills the process
}

/// Prints the prepared-geometry cache summary for a join: hits and misses
/// are per-side lookups (two per refined pair), and a miss builds an index
/// only when both polygons are large or the object's scans reach the cost
/// of one during the pair.
/// Silent when nothing was refined.
void ReportPreparedStats(const PipelineStats& stats) {
  if (stats.prepared_hits + stats.prepared_misses == 0) return;
  std::fprintf(stderr,
               "[join] prepared cache: %llu hits / %llu misses, %llu built\n",
               static_cast<unsigned long long>(stats.prepared_hits),
               static_cast<unsigned long long>(stats.prepared_misses),
               static_cast<unsigned long long>(stats.prepared_builds));
}

/// Prints the --time-stages summary: per-stage seconds plus the decoded
/// cache counters of compressed inputs. Silent unless stage timing was
/// requested.
void ReportStageStats(const PipelineStats& stats, bool time_stages) {
  if (!time_stages) return;
  std::fprintf(stderr, "[join] stages: filter %.3fs, refine %.3fs\n",
               stats.filter_seconds, stats.refine_seconds);
  // Decoded-record cache telemetry (compressed APRIL inputs, i.e. the
  // sharded path).
  const uint64_t decoded = stats.decoded_hits + stats.decoded_misses;
  if (decoded != 0) {
    std::fprintf(stderr,
                 "[join] decoded cache: %llu hits / %llu misses (%.1f%% hit "
                 "rate, %llu corrupt)\n",
                 static_cast<unsigned long long>(stats.decoded_hits),
                 static_cast<unsigned long long>(stats.decoded_misses),
                 100.0 * static_cast<double>(stats.decoded_hits) /
                     static_cast<double>(decoded),
                 static_cast<unsigned long long>(stats.decoded_corrupt));
  }
}

/// Reports a cut-short refinement stage. Every printed pair was fully
/// verified before the cut (loss-less cancellation), so the partial output
/// is a correct subset of the full answer.
int ReportStopped(const Status& status, const PartialResult& partial,
                  const PipelineStats& stats) {
  std::fprintf(stderr,
               "[join] stopped early: %s — %llu/%llu pairs answered "
               "(cancel latency %llu us, %llu check-ins)\n",
               status.ToString().c_str(),
               static_cast<unsigned long long>(partial.completed),
               static_cast<unsigned long long>(partial.total),
               static_cast<unsigned long long>(stats.cancel_latency_us),
               static_cast<unsigned long long>(stats.checkins));
  return ExitCodeFor(status);
}

int CmdJoin(int argc, char** argv) {
  if (argc < 4) return Usage();
  const Flags flags = ParseFlags(argc, argv, 4);
  const auto method = ParseMethod(flags.method);
  if (!method) {
    std::fprintf(stderr, "unknown method '%s'\n", flags.method.c_str());
    return kExitBadName;
  }
  std::optional<de9im::Relation> predicate;
  if (!flags.predicate.empty()) {
    predicate = ParseRelation(flags.predicate);
    if (!predicate) {
      std::fprintf(stderr, "unknown predicate '%s'\n",
                   flags.predicate.c_str());
      return kExitBadName;
    }
    if (!flags.shard_dir.empty()) {
      std::fprintf(stderr,
                   "--predicate cannot be combined with --shard-dir\n");
      return kExitUsage;
    }
  }
  Dataset r;
  Dataset s;
  if (Status st = LoadInput(argv[2], "R", flags, &r); !st.ok()) {
    return FailWith(st);
  }
  if (Status st = LoadInput(argv[3], "S", flags, &s); !st.ok()) {
    return FailWith(st);
  }
  const RasterGrid grid = GridOver({&r, &s}, flags.grid_order);

  // Either bounding flag makes the whole query cancellable; Ctrl-C then
  // cancels cooperatively instead of killing the process mid-write.
  ExecContext exec;
  ExecContext* exec_ptr = nullptr;
  if (flags.Bounded()) {
    if (flags.deadline_ms != 0) {
      exec.SetDeadlineAfter(std::chrono::milliseconds(flags.deadline_ms));
    }
    if (flags.max_memory_mb != 0) {
      exec.SetMemoryBudget(flags.max_memory_mb << 20);
    }
    exec_ptr = &exec;
    g_join_exec = &exec;
    std::signal(SIGINT, HandleInterrupt);
  }

  Timer timer;
  std::vector<AprilApproximation> r_april =
      BuildAprilApproximations(r, grid, flags.threads, exec_ptr);
  std::vector<AprilApproximation> s_april =
      BuildAprilApproximations(s, grid, flags.threads, exec_ptr);
  std::fprintf(stderr, "[april] built %zu+%zu approximations (preprocess "
               "%.2fs)\n",
               r_april.size(), s_april.size(), timer.ElapsedSeconds());
  if (exec_ptr != nullptr && exec_ptr->StopRequested()) {
    std::fprintf(stderr, "[join] stopped during preprocessing: no pairs "
                 "answered\n");
    return FailWith(exec_ptr->ToStatus());
  }

  const JoinOptions join_options{.num_threads = flags.threads,
                                 .time_stages = flags.time_stages,
                                 .exec = exec_ptr};

  if (!flags.shard_dir.empty()) {
    // Out-of-core path: persist both sides as shard sets, then join tile
    // pair by tile pair with a bounded resident-shard cache. Same links as
    // the in-memory join below, in the same (r, s) order.
    timer.Reset();
    PartitionOptions partition_options;
    partition_options.units_per_tile = flags.partition_units;
    const auto build_side =
        [&](const char* sub, const Dataset& dataset,
            const std::vector<AprilApproximation>& april) -> Status {
      TilePartition partition;
      ShardWriteStats write_stats;
      Status st = BuildShardSet(flags.shard_dir + sub, dataset.objects,
                                CompressApproximations(april),
                                partition_options, &partition, &write_stats,
                                flags.threads);
      if (!st.ok()) return st;
      std::fprintf(stderr,
                   "[shard] %s%s: %u tiles, %.2f MB, imbalance %.2f\n",
                   flags.shard_dir.c_str(), sub, write_stats.tiles,
                   static_cast<double>(write_stats.bytes_written) / 1e6,
                   partition.MaxImbalance());
      return st;
    };
    if (Status st = build_side("/r", r, r_april); !st.ok()) {
      return FailWith(st);
    }
    if (Status st = build_side("/s", s, s_april); !st.ok()) {
      return FailWith(st);
    }
    // The join reads only the shard files: free the inputs before it runs.
    r = Dataset();
    s = Dataset();
    r_april = std::vector<AprilApproximation>();
    s_april = std::vector<AprilApproximation>();
    ShardSet r_shards;
    ShardSet s_shards;
    if (Status st = ShardSet::Open(flags.shard_dir + "/r", &r_shards);
        !st.ok()) {
      return FailWith(st);
    }
    if (Status st = ShardSet::Open(flags.shard_dir + "/s", &s_shards);
        !st.ok()) {
      return FailWith(st);
    }
    std::fprintf(stderr, "[shard] built both shard sets in %.2fs\n",
                 timer.ElapsedSeconds());

    timer.Reset();
    ShardJoinOptions shard_options;
    shard_options.join = join_options;
    shard_options.shard_cache_bytes = flags.shard_cache_mb << 20;
    const ShardJoinResult result =
        ShardedFindRelation(*method, r_shards, s_shards, shard_options);
    size_t links = 0;
    for (size_t i = 0; i < result.pairs.size(); ++i) {
      if (result.relations[i] == de9im::Relation::kDisjoint) continue;
      ++links;
      std::printf("%u %u %s\n", result.pairs[i].r_idx, result.pairs[i].s_idx,
                  ToString(result.relations[i]));
    }
    const ShardStats& ss = result.shard_stats;
    std::fprintf(stderr,
                 "[join] %zu links from %llu answered pairs in %.2fs "
                 "(%.1f%% refined, method %s, sharded)\n",
                 links, static_cast<unsigned long long>(ss.pairs_emitted),
                 timer.ElapsedSeconds(),
                 result.stats.UndeterminedPercent(), ToString(*method));
    std::fprintf(stderr,
                 "[shard] %llu/%llu tasks, %llu loads / %llu hits, "
                 "%llu evictions, %.2f MB mapped, %.2f MB faulted eagerly, "
                 "cache peak %.2f MB, %llu pairs deduped\n",
                 static_cast<unsigned long long>(ss.tasks_run),
                 static_cast<unsigned long long>(ss.tasks),
                 static_cast<unsigned long long>(ss.shard_loads),
                 static_cast<unsigned long long>(ss.shard_hits),
                 static_cast<unsigned long long>(ss.shards_evicted),
                 static_cast<double>(ss.bytes_mapped) / 1e6,
                 static_cast<double>(ss.bytes_faulted) / 1e6,
                 static_cast<double>(ss.cache_peak_bytes) / 1e6,
                 static_cast<unsigned long long>(ss.pairs_deduped));
    ReportPreparedStats(result.stats);
    ReportStageStats(result.stats, flags.time_stages);
    if (!result.status.ok()) {
      std::fprintf(stderr,
                   "[join] stopped early: %s — %llu pairs answered before "
                   "the cut (all printed links are final)\n",
                   result.status.ToString().c_str(),
                   static_cast<unsigned long long>(ss.pairs_emitted));
      return ExitCodeFor(result.status);
    }
    return kExitOk;
  }

  timer.Reset();
  MbrJoin::Options filter_options;
  filter_options.num_threads = flags.threads;  // 0 = hardware concurrency
  filter_options.exec = exec_ptr;
  const std::vector<CandidatePair> pairs =
      MbrJoin::Join(r.Mbrs(), s.Mbrs(), filter_options);
  std::fprintf(stderr, "[filter] %zu candidate pairs in %.2fs\n", pairs.size(),
               timer.ElapsedSeconds());
  if (exec_ptr != nullptr && exec_ptr->StopRequested()) {
    // A cut-short filter result is an incomplete candidate set, not a
    // smaller join — nothing downstream of it may be reported.
    std::fprintf(stderr, "[join] stopped during the filter stage: no pairs "
                 "answered\n");
    return FailWith(exec_ptr->ToStatus());
  }

  const DatasetView r_view{&r.objects, &r_april};
  const DatasetView s_view{&s.objects, &s_april};
  timer.Reset();
  if (predicate) {
    const ParallelRelateResult result = ParallelRelate(
        *method, r_view, s_view, pairs, *predicate, join_options);
    size_t matches = 0;
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (result.partial.Answered(i) && result.matches[i] != 0) {
        ++matches;
        std::printf("%u %u %s\n", pairs[i].r_idx, pairs[i].s_idx,
                    ToString(*predicate));
      }
    }
    std::fprintf(stderr,
                 "[join] %zu/%zu pairs satisfy %s in %.2fs (%.1f%% refined)\n",
                 matches, pairs.size(), ToString(*predicate),
                 timer.ElapsedSeconds(), result.stats.UndeterminedPercent());
    ReportPreparedStats(result.stats);
    ReportStageStats(result.stats, flags.time_stages);
    if (!result.status.ok()) {
      return ReportStopped(result.status, result.partial, result.stats);
    }
  } else {
    const ParallelJoinResult result =
        ParallelFindRelation(*method, r_view, s_view, pairs, join_options);
    size_t links = 0;
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (!result.partial.Answered(i)) continue;
      if (result.relations[i] == de9im::Relation::kDisjoint) continue;
      ++links;
      std::printf("%u %u %s\n", pairs[i].r_idx, pairs[i].s_idx,
                  ToString(result.relations[i]));
    }
    std::fprintf(stderr,
                 "[join] %zu links from %zu candidates in %.2fs "
                 "(%.1f%% refined, method %s)\n",
                 links, pairs.size(), timer.ElapsedSeconds(),
                 result.stats.UndeterminedPercent(), ToString(*method));
    ReportPreparedStats(result.stats);
    ReportStageStats(result.stats, flags.time_stages);
    if (result.stats.fallback_refined != 0) {
      std::fprintf(stderr,
                   "[join] degraded: %llu pairs fell back to refinement "
                   "(missing/corrupt approximations)\n",
                   static_cast<unsigned long long>(
                       result.stats.fallback_refined));
    }
    if (!result.status.ok()) {
      return ReportStopped(result.status, result.partial, result.stats);
    }
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "generate") == 0) return CmdGenerate(argc, argv);
  if (std::strcmp(argv[1], "april") == 0) return CmdApril(argc, argv);
  if (std::strcmp(argv[1], "aprilcheck") == 0) {
    return CmdAprilCheck(argc, argv);
  }
  if (std::strcmp(argv[1], "relate") == 0) return CmdRelate(argc, argv);
  if (std::strcmp(argv[1], "join") == 0) return CmdJoin(argc, argv);
  return Usage();
}
