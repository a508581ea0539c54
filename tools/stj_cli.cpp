// stj_cli — command-line front end for the stjoin library, mirroring the
// workflow of the paper's artifact repository:
//
//   stj_cli generate <dataset> <out.wkt> [--scale=X] [--seed=S]
//                    [--threads=T]
//       Generate one of the ten synthetic datasets (TL, TW, TC, TZ, OBE,
//       OLE, OPE, OBN, OLN, OPN) as one WKT polygon per line. --scale takes
//       a number greater than 0 (default 1) and --seed an integer from 0 to
//       2^63 - 1 (default 7). --threads formats the polygons on T workers;
//       the file's bytes do not depend on it. Prints "[generate] <name>:
//       <n> objects, <v> vertices in <s>s" and "[write] <path>: <MB> MB in
//       <s>s" to stderr.
//
//   stj_cli prepare <r.wkt> <s.wkt> <dir> [--grid-order=N] [--threads=T]
//                   [--partition-units=U] [--permissive]
//                   [--deadline-ms=D] [--max-memory-mb=B]
//       Precompute the APRIL P/C lists of every polygon of both inputs on
//       their joint grid (--grid-order 1 to 16, default 12) and write each
//       side as a shard set, <dir>/r and <dir>/s: cost-balanced tiles
//       (--partition-units targets computational units per tile; 0 = auto)
//       written on the --threads workers (0 = all cores, at most 1024), each
//       file the same at every thread count. Each manifest records the
//       grid, and each list record carries its own checksum. Prints the
//       `[load]`, `[april]` and `[shard]` lines of the sharded join. A load
//       error, a tripped deadline or an exhausted budget stops it before any
//       manifest is written.
//
//   stj_cli aprilcheck <shard-dir | shard-dir/manifest.stj>
//       Audit a shard set: the manifest frame, every tile's header and
//       segment table, and every segment's payload checksum (the record
//       sums' segment included). Tiles fail independently; a corrupt tile
//       exits 11 and names the tile.
//
//   stj_cli relate <wkt-polygon-1> <wkt-polygon-2>
//       Print the DE-9IM matrix and the most specific relation of two
//       polygons given inline as WKT strings.
//
//   stj_cli join <r.wkt> <s.wkt> [--method=pc|st2|op2|april]
//                [--grid-order=N] [--predicate=<relation>] [--threads=T]
//                [--time-stages] [--permissive]
//                [--deadline-ms=D] [--max-memory-mb=B]
//                [--shard-dir=D [--shard-cache-mb=M] [--partition-units=U]]
//   stj_cli join <r-dir> <s-dir> [--method=...] [--threads=T]
//                [--shard-cache-mb=M] [--time-stages]
//                [--deadline-ms=D] [--max-memory-mb=B]
//       Run the full topology join between two WKT files: MBR filter join,
//       APRIL approximations of just the objects the method's filter reads
//       (none for st2 and op2, nor for a relate_p join with april), then
//       find-relation (default) or a relate_p predicate join. --grid-order
//       and --threads take the same ranges as for `prepare`, and every flag
//       is checked before the inputs are read: a numeric value that is not a
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
//       Given two prepared sides (shard sets written by `prepare`), the
//       join maps them and joins tile pair by tile pair on the --threads
//       workers, each claiming whole tasks, with about --shard-cache-mb (at
//       least 1, default 256) of shards resident beyond the pinned shards of
//       the running tasks; each worker decodes the list records it filters
//       through a per-worker decoded-record cache. A record that fails its
//       checksum is not filtered on: its pairs refine, and a `[join]
//       degraded: N pairs ...` line counts them. Both sides must record the
//       same grid (exit 12 otherwise), and both arguments must be WKT files
//       or both shard sets (exit 2 otherwise). Find-relation only.
//
//       --shard-dir=D runs `prepare` into D and then the prepared join of
//       D/r and D/s in one process, freeing the inputs in between. The
//       output is byte-identical to the in-memory join's at every
//       --threads. --predicate cannot be combined with it.
//
// Every command reads only its own flags: any other flag exits 2, naming
// the flag and the command.
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
// file; 4 malformed content (WKT parse error, structural damage to a shard
// set, an unsupported shard version); 5 unknown dataset/method/predicate
// name; 7 query deadline exceeded (--deadline-ms); 8 query cancelled
// (SIGINT); 9 query memory budget exhausted (--max-memory-mb); 11
// (aprilcheck) shard set whose manifest loads but with one or more corrupt
// tiles (failed segment checksum, structural damage, or a manifest/file
// disagreement); 12 prepared sides recorded on different raster grids, or
// on none. Codes 6 and 10 belonged to the retired `.april` file format and
// are not reused.

#include <algorithm>
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
#include <utility>

#include "src/datasets/dataset_io.h"
#include "src/datasets/prepare.h"
#include "src/datasets/scenarios.h"
#include "src/de9im/relate_engine.h"
#include "src/geometry/validate.h"
#include "src/geometry/wkt.h"
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
  kExitDeadline = 7,
  kExitCancelled = 8,
  kExitBudget = 9,
  kExitShardCorrupt = 11,
  kExitGridMismatch = 12,
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

/// One bit per flag: each command accepts a set of them.
enum FlagBit : uint32_t {
  kFlagScale = 1u << 0,
  kFlagSeed = 1u << 1,
  kFlagGridOrder = 1u << 2,
  kFlagMethod = 1u << 3,
  kFlagPredicate = 1u << 4,
  kFlagThreads = 1u << 5,
  kFlagTimeStages = 1u << 6,
  kFlagPermissive = 1u << 7,
  kFlagDeadlineMs = 1u << 8,
  kFlagMaxMemoryMb = 1u << 9,
  kFlagShardDir = 1u << 10,
  kFlagShardCacheMb = 1u << 11,
  kFlagPartitionUnits = 1u << 12,
};

/// The flags each command reads.
constexpr uint32_t kGenerateFlags = kFlagScale | kFlagSeed | kFlagThreads;
constexpr uint32_t kPrepareFlags = kFlagGridOrder | kFlagThreads |
                                   kFlagPartitionUnits | kFlagPermissive |
                                   kFlagDeadlineMs | kFlagMaxMemoryMb;
constexpr uint32_t kJoinFlags = kFlagMethod | kFlagGridOrder | kFlagPredicate |
                                kFlagThreads | kFlagTimeStages |
                                kFlagPermissive | kFlagDeadlineMs |
                                kFlagMaxMemoryMb | kFlagShardDir;
/// Read by a WKT join only together with --shard-dir.
constexpr uint32_t kShardDirFlags = kFlagShardCacheMb | kFlagPartitionUnits;
constexpr uint32_t kPreparedJoinFlags = kFlagMethod | kFlagThreads |
                                        kFlagShardCacheMb | kFlagDeadlineMs |
                                        kFlagMaxMemoryMb | kFlagTimeStages;

/// Name and bit of every flag; `value` flags are spelled --name=value.
struct FlagSpec {
  const char* name;
  FlagBit bit;
  bool value;
};
constexpr FlagSpec kFlagSpecs[] = {
    {"--scale", kFlagScale, true},
    {"--seed", kFlagSeed, true},
    {"--grid-order", kFlagGridOrder, true},
    {"--method", kFlagMethod, true},
    {"--predicate", kFlagPredicate, true},
    {"--threads", kFlagThreads, true},
    {"--time-stages", kFlagTimeStages, false},
    {"--permissive", kFlagPermissive, false},
    {"--deadline-ms", kFlagDeadlineMs, true},
    {"--max-memory-mb", kFlagMaxMemoryMb, true},
    {"--shard-dir", kFlagShardDir, true},
    {"--shard-cache-mb", kFlagShardCacheMb, true},
    {"--partition-units", kFlagPartitionUnits, true},
};

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

/// Parses argv[first..] as flags of \p command, which reads the flags in
/// \p accepted. An unknown flag, or one the command does not read, exits
/// with the usage code and names both.
Flags ParseFlags(int argc, char** argv, int first, const char* command,
                 uint32_t accepted) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    const FlagSpec* spec = nullptr;
    const char* value = nullptr;
    for (const FlagSpec& candidate : kFlagSpecs) {
      const size_t len = std::strlen(candidate.name);
      if (std::strncmp(arg, candidate.name, len) != 0) continue;
      if (candidate.value ? arg[len] == '=' : arg[len] == '\0') {
        spec = &candidate;
        value = arg + len + 1;
        break;
      }
    }
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      std::exit(kExitUsage);
    }
    if ((accepted & spec->bit) == 0) {
      std::fprintf(stderr, "stj_cli %s does not read %s\n", command,
                   spec->name);
      std::exit(kExitUsage);
    }
    switch (spec->bit) {
      case kFlagScale: flags.scale = ParseScale(value); break;
      case kFlagSeed:
        flags.seed =
            static_cast<uint64_t>(ParseBounded("--seed", value, 0, INT64_MAX));
        break;
      case kFlagGridOrder:
        flags.grid_order = static_cast<uint32_t>(
            ParseBounded("--grid-order", value, 1, kMaxGridOrder));
        break;
      case kFlagMethod: flags.method = value; break;
      case kFlagPredicate: flags.predicate = value; break;
      case kFlagThreads:
        flags.threads = static_cast<unsigned>(
            ParseBounded("--threads", value, 0, kMaxThreads));
        break;
      case kFlagTimeStages: flags.time_stages = true; break;
      case kFlagPermissive: flags.permissive = true; break;
      case kFlagDeadlineMs:
        flags.deadline_ms = static_cast<uint64_t>(
            ParseBounded("--deadline-ms", value, 0, kMaxDeadlineMs));
        break;
      case kFlagMaxMemoryMb:
        flags.max_memory_mb = static_cast<size_t>(
            ParseBounded("--max-memory-mb", value, 0, kMaxMegabytes));
        break;
      case kFlagShardDir: flags.shard_dir = value; break;
      case kFlagShardCacheMb:
        flags.shard_cache_mb = static_cast<size_t>(
            ParseBounded("--shard-cache-mb", value, 1, kMaxMegabytes));
        break;
      case kFlagPartitionUnits:
        flags.partition_units = static_cast<uint64_t>(
            ParseBounded("--partition-units", value, 0, INT64_MAX));
        break;
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
               "usage: stj_cli <generate|prepare|aprilcheck|relate|join> ... "
               "(see source header for details)\n");
  return kExitUsage;
}

/// The grid of \p order over the joint bounds of \p r and \p s.
RasterGrid GridOver(const Dataset& r, const Dataset& s, uint32_t order) {
  Box bounds;
  for (const Dataset* dataset : {&r, &s}) {
    for (const SpatialObject& object : dataset->objects) {
      bounds.Expand(object.geometry.Bounds());
    }
  }
  return RasterGrid(bounds, order);
}

/// Prints a load's `[load]` summary line plus any repairs/skips.
void PrintLoad(const std::string& path, size_t objects, size_t vertices,
               double seconds, const LoadReport& report) {
  std::error_code size_error;
  const uintmax_t bytes = std::filesystem::file_size(path, size_error);
  std::fprintf(stderr, "[load] %s: %zu objects, %zu vertices, %.1f MB in "
               "%.2fs\n",
               path.c_str(), objects, vertices,
               size_error ? 0.0 : static_cast<double>(bytes) / 1e6, seconds);
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
}

/// Loads a WKT dataset on --threads workers honouring --permissive; on
/// success prints its `[load]` lines, on failure returns the precise Status.
Status LoadInput(const std::string& path, const std::string& name,
                 const Flags& flags, Dataset* out) {
  LoadOptions options;
  options.mode = flags.permissive ? LoadMode::kPermissive : LoadMode::kStrict;
  options.num_threads = flags.threads;
  LoadReport report;
  Timer timer;
  Status status = LoadWktDataset(path, name, options, out, &report);
  if (!status.ok()) return status;
  PrintLoad(path, out->objects.size(), out->TotalVertices(),
            timer.ElapsedSeconds(), report);
  return status;
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 4) return Usage();
  const Flags flags = ParseFlags(argc, argv, 4, "generate", kGenerateFlags);
  Timer timer;
  const Dataset dataset = BuildDataset(argv[2], flags.scale, flags.seed);
  const double generate_seconds = timer.ElapsedSeconds();
  if (dataset.objects.empty()) {
    std::fprintf(stderr, "unknown dataset '%s' (expected one of", argv[2]);
    for (const std::string& name : DatasetNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return kExitBadName;
  }
  std::fprintf(stderr, "[generate] %s: %zu objects, %zu vertices in %.2fs\n",
               argv[2], dataset.objects.size(), dataset.TotalVertices(),
               generate_seconds);
  timer.Reset();
  if (!SaveWktDataset(argv[3], dataset, flags.threads)) {
    return FailWith(Status::IoError("cannot write dataset").WithFile(argv[3]));
  }
  std::error_code size_error;
  const uintmax_t bytes = std::filesystem::file_size(argv[3], size_error);
  std::fprintf(stderr, "[write] %s: %.1f MB in %.2fs\n", argv[3],
               size_error ? 0.0 : static_cast<double>(bytes) / 1e6,
               timer.ElapsedSeconds());
  return kExitOk;
}

/// aprilcheck: the full integrity audit of a shard set (every segment's
/// payload checksum is read and verified). Tiles fail independently; any
/// corrupt tile yields the distinct shard-corruption exit code.
int CmdAprilCheck(int argc, char** argv) {
  if (argc < 3) return Usage();
  ParseFlags(argc, argv, 3, "aprilcheck", 0);
  std::string dir;
  if (!ResolveShardSetDir(argv[2], &dir)) dir = argv[2];
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
  ParseFlags(argc, argv, 4, "relate", 0);
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

/// The running command's ExecContext, reachable from the SIGINT handler.
/// The handler only performs a lock-free CAS plus clock_gettime (both
/// async-signal-safe), which is exactly what cooperative cancellation is
/// for: the workers notice at their next check-in and stop at a pair
/// boundary.
ExecContext* g_join_exec = nullptr;

void HandleInterrupt(int) {
  if (g_join_exec != nullptr) g_join_exec->Cancel();
  std::signal(SIGINT, SIG_DFL);  // a second Ctrl-C kills the process
}

/// Arms \p exec with --deadline-ms and --max-memory-mb and returns it, or
/// returns null when neither flag is set. Either flag makes the whole
/// command cancellable; Ctrl-C then cancels cooperatively instead of
/// killing the process mid-write.
ExecContext* BoundedContext(const Flags& flags, ExecContext* exec) {
  if (!flags.Bounded()) return nullptr;
  if (flags.deadline_ms != 0) {
    exec->SetDeadlineAfter(std::chrono::milliseconds(flags.deadline_ms));
  }
  if (flags.max_memory_mb != 0) {
    exec->SetMemoryBudget(flags.max_memory_mb << 20);
  }
  g_join_exec = exec;
  std::signal(SIGINT, HandleInterrupt);
  return exec;
}

/// Prints the "[april] built R/total + S/total" line.
void PrintBuilt(size_t r_built, size_t r_total, size_t s_built,
                size_t s_total, double seconds) {
  std::fprintf(stderr,
               "[april] built %zu/%zu + %zu/%zu approximations (preprocess "
               "%.2fs)\n",
               r_built, r_total, s_built, s_total, seconds);
}

/// Builds the approximations of both sides over \p grid, each restricted to
/// its demand mask, and prints the "[april] built R/total + S/total" line.
/// False when \p exec cut the build short.
bool BuildBothSides(const Dataset& r, const Dataset& s, const RasterGrid& grid,
                    unsigned threads, ExecContext* exec,
                    const FilterDemand& demand,
                    std::vector<AprilApproximation>* r_april,
                    std::vector<AprilApproximation>* s_april) {
  const Timer build_timer;
  *r_april = BuildAprilApproximations(r, grid, threads, exec, &demand.r);
  *s_april = BuildAprilApproximations(s, grid, threads, exec, &demand.s);
  const auto built = [](const std::vector<AprilApproximation>& april) {
    return static_cast<size_t>(
        std::count_if(april.begin(), april.end(),
                      [](const AprilApproximation& a) { return a.usable; }));
  };
  PrintBuilt(built(*r_april), r_april->size(), built(*s_april),
             s_april->size(), build_timer.ElapsedSeconds());
  return exec == nullptr || !exec->StopRequested();
}

/// The first half of the out-of-core path: streams both WKT inputs into
/// <dir>/r and <dir>/s, shard sets over their joint grid whose manifests
/// record it (PrepareShardSets), and prints its `[load]`, `[april]` and
/// `[shard]` lines. A failure or a tripped \p exec leaves no manifest.
/// Returns the exit code.
int PrepareSides(const char* r_path, const char* s_path,
                 const std::string& dir, const Flags& flags,
                 ExecContext* exec) {
  PrepareOptions options;
  options.mode = flags.permissive ? LoadMode::kPermissive : LoadMode::kStrict;
  options.grid_order = flags.grid_order;
  options.partition.units_per_tile = flags.partition_units;
  options.num_threads = flags.threads;
  options.exec = exec;
  PrepareReport report;
  const Status status =
      PrepareShardSets(r_path, s_path, dir, options, &report);
  const std::pair<const char*, const PrepareReport::Side*> sides[2] = {
      {r_path, &report.r}, {s_path, &report.s}};
  for (const auto& [path, side] : sides) {
    if (side->loaded) {
      PrintLoad(path, side->objects, side->vertices, side->load_seconds,
                side->load);
    }
  }
  if (report.build_started) {
    PrintBuilt(report.r.built, report.r.objects, report.s.built,
               report.s.objects, report.build_seconds);
  }
  if (!status.ok()) {
    if (exec != nullptr && exec->StopRequested()) {
      std::fprintf(stderr, "[shard] stopped during preprocessing: no shard "
                   "set written\n");
    }
    return FailWith(status);
  }
  for (const auto& [sub, side] :
       {std::pair{"/r", &report.r}, std::pair{"/s", &report.s}}) {
    std::fprintf(stderr, "[shard] %s%s: %u tiles, %.2f MB, imbalance %.2f\n",
                 dir.c_str(), sub, side->write.tiles,
                 static_cast<double>(side->write.bytes_written) / 1e6,
                 side->imbalance);
  }
  std::fprintf(stderr, "[shard] built both shard sets in %.2fs\n",
               report.write_seconds);
  return kExitOk;
}

int CmdPrepare(int argc, char** argv) {
  if (argc < 5) return Usage();
  const Flags flags = ParseFlags(argc, argv, 5, "prepare", kPrepareFlags);
  ExecContext exec;
  return PrepareSides(argv[2], argv[3], argv[4], flags,
                      BoundedContext(flags, &exec));
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

/// Prints how many pairs refined because their approximations were missing
/// or failed their checksums. Silent when none did.
void ReportDegraded(const PipelineStats& stats) {
  if (stats.fallback_refined == 0) return;
  std::fprintf(stderr,
               "[join] degraded: %llu pairs fell back to refinement "
               "(missing/corrupt approximations)\n",
               static_cast<unsigned long long>(stats.fallback_refined));
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

/// "grid order N over (x0 y0, x1 y1)", or "no grid".
std::string DescribeGrid(const ShardRasterGrid& grid) {
  if (grid.order == 0) return "no grid";
  char text[192];
  std::snprintf(text, sizeof text, "grid order %u over (%.17g %.17g, %.17g "
                "%.17g)",
                grid.order, grid.dataspace.min.x, grid.dataspace.min.y,
                grid.dataspace.max.x, grid.dataspace.max.y);
  return text;
}

/// The second half of the out-of-core path: maps two prepared sides and
/// joins them tile pair by tile pair with a bounded resident-shard cache.
/// Same links as the in-memory join, in the same (r, s) order. Sides that
/// record different raster grids, or none, exit 12 before the join.
int JoinPreparedSides(const std::string& r_dir, const std::string& s_dir,
                      Method method, const Flags& flags, ExecContext* exec) {
  ShardSet r_shards;
  ShardSet s_shards;
  if (Status st = ShardSet::Open(r_dir, &r_shards); !st.ok()) {
    return FailWith(st);
  }
  if (Status st = ShardSet::Open(s_dir, &s_shards); !st.ok()) {
    return FailWith(st);
  }
  const ShardRasterGrid& r_grid = r_shards.RasterGridRecord();
  const ShardRasterGrid& s_grid = s_shards.RasterGridRecord();
  if (r_grid.order == 0 || !(r_grid == s_grid)) {
    std::fprintf(stderr,
                 "error: prepared sides must record one raster grid: %s has "
                 "%s, %s has %s\n",
                 r_dir.c_str(), DescribeGrid(r_grid).c_str(), s_dir.c_str(),
                 DescribeGrid(s_grid).c_str());
    return kExitGridMismatch;
  }

  const Timer timer;
  ShardJoinOptions shard_options;
  shard_options.join = JoinOptions{.num_threads = flags.threads,
                                   .time_stages = flags.time_stages,
                                   .exec = exec};
  shard_options.shard_cache_bytes = flags.shard_cache_mb << 20;
  const ShardJoinResult result =
      ShardedFindRelation(method, r_shards, s_shards, shard_options);
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
               timer.ElapsedSeconds(), result.stats.UndeterminedPercent(),
               ToString(method));
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
  ReportDegraded(result.stats);
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

int CmdJoin(int argc, char** argv) {
  if (argc < 4) return Usage();
  // Both arguments are WKT files, or both are prepared sides.
  std::string r_dir;
  std::string s_dir;
  const bool prepared = ResolveShardSetDir(argv[2], &r_dir);
  if (prepared != ResolveShardSetDir(argv[3], &s_dir)) {
    std::fprintf(stderr,
                 "join takes two WKT files or two prepared shard sets, got "
                 "one of each: %s, %s\n",
                 argv[2], argv[3]);
    return kExitUsage;
  }
  const bool sharded = std::any_of(argv + 4, argv + argc, [](const char* arg) {
    return std::strncmp(arg, "--shard-dir=", 12) == 0;
  });
  const Flags flags =
      prepared  ? ParseFlags(argc, argv, 4, "join over prepared sides",
                             kPreparedJoinFlags)
      : sharded ? ParseFlags(argc, argv, 4, "join", kJoinFlags | kShardDirFlags)
                : ParseFlags(argc, argv, 4, "join without --shard-dir",
                             kJoinFlags);
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

  ExecContext exec;
  ExecContext* const exec_ptr = BoundedContext(flags, &exec);
  if (prepared) {
    return JoinPreparedSides(r_dir, s_dir, *method, flags, exec_ptr);
  }
  if (!flags.shard_dir.empty()) {
    // One out-of-core path: prepare, free the inputs, join the prepared
    // sides. The shard files carry every object's lists, so every object
    // is built.
    if (const int rc = PrepareSides(argv[2], argv[3], flags.shard_dir, flags,
                                    exec_ptr);
        rc != kExitOk) {
      return rc;
    }
    return JoinPreparedSides(flags.shard_dir + "/r", flags.shard_dir + "/s",
                             *method, flags, exec_ptr);
  }

  Dataset r;
  Dataset s;
  if (Status st = LoadInput(argv[2], "R", flags, &r); !st.ok()) {
    return FailWith(st);
  }
  if (Status st = LoadInput(argv[3], "S", flags, &s); !st.ok()) {
    return FailWith(st);
  }
  const RasterGrid grid = GridOver(r, s, flags.grid_order);
  const JoinOptions join_options{.num_threads = flags.threads,
                                 .time_stages = flags.time_stages,
                                 .exec = exec_ptr};

  Timer timer;
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

  // Only the objects whose lists the filter will read are built.
  const FilterDemand demand =
      FilterDemandOf(*method, predicate, r.objects, s.objects, pairs);
  std::vector<AprilApproximation> r_april;
  std::vector<AprilApproximation> s_april;
  if (!BuildBothSides(r, s, grid, flags.threads, exec_ptr, demand, &r_april,
                      &s_april)) {
    std::fprintf(stderr, "[join] stopped during preprocessing: no pairs "
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
    ReportDegraded(result.stats);
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
    ReportDegraded(result.stats);
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
  if (std::strcmp(argv[1], "prepare") == 0) return CmdPrepare(argc, argv);
  if (std::strcmp(argv[1], "aprilcheck") == 0) {
    return CmdAprilCheck(argc, argv);
  }
  if (std::strcmp(argv[1], "relate") == 0) return CmdRelate(argc, argv);
  if (std::strcmp(argv[1], "join") == 0) return CmdJoin(argc, argv);
  return Usage();
}
