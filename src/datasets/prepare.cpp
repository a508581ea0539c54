#include "src/datasets/prepare.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "src/raster/april.h"
#include "src/raster/april_compressed.h"
#include "src/raster/grid.h"
#include "src/topology/shard_scheduler.h"
#include "src/util/parallel_for.h"
#include "src/util/thread_annotations.h"
#include "src/util/timer.h"

namespace stj {

namespace {

/// Objects a pass-2 worker claims at a time: it reads their records with
/// one pread, then parses, builds and compresses them one by one.
constexpr size_t kBuildRun = 16;

/// Pass 1's sink: each range spills its objects through its own appender.
class SpillSink final : public WktObjectSink {
 public:
  SpillSink(GeometrySpill* spill, ExecContext* exec)
      : spill_(spill), exec_(exec) {}

  void StartRanges(size_t ranges) override {
    for (size_t i = 0; i < ranges; ++i) {
      appenders_.emplace_back(spill_);
      scopes_.emplace_back(exec_);
    }
  }

  Status Accept(size_t range, Polygon* polygon) override {
    if (scopes_[range].CheckIn()) return exec_->ToStatus();
    return appenders_[range].Append(/*id=*/0, *polygon);  // numbered later
  }

  /// Writes what the appenders still hold and lists every object in the
  /// spill in file order, numbered as LoadWktDataset numbers them.
  Status Finish() {
    std::vector<SpilledObject>& objects = spill_->Objects();
    for (GeometrySpill::Appender& appender : appenders_) {
      if (Status st = appender.Flush(); !st.ok()) return st;
      for (SpilledObject& object : appender.objects()) {
        object.id = static_cast<uint32_t>(objects.size());
        objects.push_back(object);
      }
      appender.objects() = {};
    }
    return Status::Ok();
  }

 private:
  GeometrySpill* spill_;
  ExecContext* exec_;
  // Deques: appenders and scopes stay where they are built, one per range.
  std::deque<GeometrySpill::Appender> appenders_;
  std::deque<ExecContext::Scope> scopes_;
};

/// Pass 1 for one input: spills \p path into \p spill, on the filesystem
/// of \p dir.
Status SpillInput(const std::string& path, const std::string& dir,
                  const PrepareOptions& options, GeometrySpill* spill,
                  PrepareReport::Side* side) {
  const Timer timer;
  Status st = GeometrySpill::Create(dir, spill);
  if (!st.ok()) return st;
  LoadOptions load;
  load.mode = options.mode;
  load.num_threads = options.num_threads;
  SpillSink sink(spill, options.exec);
  st = StreamWktDataset(path, load, &sink, &side->load);
  if (st.ok()) st = sink.Finish();
  if (!st.ok()) return st;
  side->loaded = true;
  side->objects = spill->Objects().size();
  for (const SpilledObject& object : spill->Objects()) {
    side->vertices += object.vertices;
  }
  side->load_seconds = timer.ElapsedSeconds();
  return Status::Ok();
}

/// Pass 2's build for one side. Workers claim runs of objects from one
/// cursor, read each run's records back from \p spill, and parse, build and
/// compress its objects one at a time into the run's own store, so a flat
/// list lives only until it is encoded. Finished runs are appended to
/// \p store in object order, so its bytes do not depend on which worker
/// built what. \p charged accumulates the store bytes charged to the
/// budget.
Status BuildSide(const GeometrySpill& spill, const RasterGrid& grid,
                 const PrepareOptions& options, CompressedAprilStore* store,
                 size_t* charged, PrepareReport::Side* side) {
  ExecContext* const exec = options.exec;
  const std::vector<SpilledObject>& objects = spill.Objects();
  const size_t runs = (objects.size() + kBuildRun - 1) / kBuildRun;
  const unsigned threads = static_cast<unsigned>(std::min<size_t>(
      runs, options.num_threads != 0
                ? options.num_threads
                : std::max(1u, std::thread::hardware_concurrency())));
  std::vector<uint32_t> ids(objects.size());
  std::iota(ids.begin(), ids.end(), 0);
  store->Reserve(objects.size(), /*blocks=*/0, /*payload_bytes=*/0);
  // Guards finished, appended, *store and *charged while the workers run.
  std::mutex mutex;
  // A run finished ahead of an earlier one waits here until it is next.
  std::vector<std::unique_ptr<CompressedAprilStore>> finished(runs);
  size_t appended = 0;  // runs in *store
  std::vector<Status> worker_status(std::max(1u, threads));
  std::vector<uint64_t> worker_built(std::max(1u, threads), 0);
  STJ_ATOMIC_DOC(
      "run cursor; fetch_add by every worker, each run is claimed once; the "
      "runs' stores are handed over under mutex");
  std::atomic<size_t> next{0};
  STJ_ATOMIC_DOC(
      "set by a worker whose read or parse failed, polled by the others "
      "before each claim (seq_cst); worker_status is read after the join");
  std::atomic<bool> failed{false};
  internal::RunWorkers(threads, [&](unsigned worker) {
    const AprilBuilder builder(&grid);
    ExecContext::Scope scope(exec);
    std::vector<uint8_t> records;
    Polygon polygon;
    for (size_t run = next.fetch_add(1); run < runs && !failed.load();
         run = next.fetch_add(1)) {
      const size_t first = run * kBuildRun;
      const size_t last = std::min(objects.size(), first + kBuildRun);
      Status st =
          spill.ReadRecords(ids.data() + first, last - first, &records);
      auto lists = std::make_unique<CompressedAprilStore>();
      const uint8_t* record = records.data();
      for (size_t i = first; st.ok() && i < last; ++i) {
        // Rasterising one object is the expensive work unit: check in on
        // every one.
        if (scope.CheckIn()) return;
        if (!GeometrySpill::ParseRecord(record, objects[i].RecordBytes(),
                                        &polygon)) {
          st = Status::Internal("spilled geometry does not parse back");
          break;
        }
        record += objects[i].RecordBytes();
        const AprilApproximation april = builder.Build(polygon);
        if (exec != nullptr && !exec->TryCharge(april.ByteSize())) return;
        const AprilView view(april);
        lists->AppendEncoded(view.conservative, view.progressive);
        if (exec != nullptr) exec->Release(april.ByteSize());
        ++worker_built[worker];
      }
      if (!st.ok()) {
        worker_status[worker] = st;
        failed.store(true);
        return;
      }
      const size_t run_bytes = lists->ByteSize();
      if (exec != nullptr && !exec->TryCharge(run_bytes)) return;
      const std::lock_guard<std::mutex> lock(mutex);
      *charged += run_bytes;
      finished[run] = std::move(lists);
      for (; appended < runs && finished[appended] != nullptr; ++appended) {
        const CompressedAprilStore& from = *finished[appended];
        for (size_t k = 0; k < from.Count(); ++k) {
          store->AppendRecordFrom(from, k);
        }
        finished[appended].reset();
      }
    }
  });
  for (const uint64_t built : worker_built) side->built += built;
  if (exec != nullptr && exec->StopRequested()) return exec->ToStatus();
  for (const Status& st : worker_status) {
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

/// The directories a prepare into \p dir creates: \p dir's first missing
/// component when \p dir does not exist, else each missing side directory.
/// A failed prepare removes them.
std::vector<std::filesystem::path> CreatedRoots(const std::string& dir) {
  const std::filesystem::path out = dir;
  const std::filesystem::path existing = NearestExisting(dir);
  std::vector<std::filesystem::path> roots;
  if (existing == out) {
    std::error_code ec;
    for (const char* sub : {"r", "s"}) {
      if (!std::filesystem::exists(out / sub, ec)) roots.push_back(out / sub);
    }
  } else if (const std::filesystem::path below =
                 out.lexically_relative(existing);
             !below.empty()) {
    roots.push_back(existing / *below.begin());
  }
  return roots;
}

}  // namespace

Status PrepareShardSets(const std::string& r_path, const std::string& s_path,
                        const std::string& dir, const PrepareOptions& options,
                        PrepareReport* report) {
  *report = PrepareReport{};
  ExecContext* const exec = options.exec;
  std::unique_ptr<GeometrySpill> spills[2];
  PrepareReport::Side* const sides[2] = {&report->r, &report->s};
  const std::string paths[2] = {r_path, s_path};
  for (int i = 0; i < 2; ++i) {
    spills[i] = std::make_unique<GeometrySpill>();
    if (Status st = SpillInput(paths[i], dir, options, spills[i].get(),
                               sides[i]);
        !st.ok()) {
      return st;
    }
  }
  Box bounds;
  for (const std::unique_ptr<GeometrySpill>& spill : spills) {
    for (const SpilledObject& object : spill->Objects()) {
      bounds.Expand(object.mbr);
    }
  }
  const RasterGrid grid(bounds, options.grid_order);

  const std::vector<std::filesystem::path> created = CreatedRoots(dir);
  const char* const subs[2] = {"/r", "/s"};
  report->build_started = true;
  Status status;
  int written = 0;  // sides whose shard sets are complete
  for (int i = 0; i < 2 && status.ok(); ++i) {
    CompressedAprilStore store;
    size_t charged = 0;
    Timer timer;
    status = BuildSide(*spills[i], grid, options, &store, &charged, sides[i]);
    report->build_seconds += timer.ElapsedSeconds();
    if (status.ok()) {
      timer.Reset();
      TilePartition partition;
      status = BuildShardSet(dir + subs[i], *spills[i], store,
                             options.partition, &partition, &sides[i]->write,
                             options.num_threads, &grid, exec);
      report->write_seconds += timer.ElapsedSeconds();
      sides[i]->imbalance = partition.MaxImbalance();
      if (status.ok()) ++written;
    }
    if (exec != nullptr) exec->Release(charged);
    spills[i].reset();
  }
  if (status.ok()) return status;
  // Nothing of a failed prepare may pass for a prepared side. A side whose
  // write failed has no manifest already (WriteShardSet removes it first);
  // a side not reached keeps the set it held.
  std::error_code ec;
  for (const std::filesystem::path& root : created) {
    std::filesystem::remove_all(root, ec);
  }
  for (int i = 0; i < written; ++i) {
    // Discarded: the prepare's own failure is what it reports.
    (void)RemoveShardManifest(dir + subs[i]);
  }
  return status;
}

}  // namespace stj
