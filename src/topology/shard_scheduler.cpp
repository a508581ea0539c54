#include "src/topology/shard_scheduler.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <tuple>

#include "src/join/mbr_join.h"
#include "src/raster/hilbert.h"
#include "src/util/check.h"
#include "src/util/pinned_byte_cache.h"
#include "src/util/thread_annotations.h"

namespace stj {

namespace {

/// Resident-shard cache: a PinnedByteLruCache of LoadedShards keyed by
/// (side, tile), shared by the workers. The byte budget is the discipline,
/// not a hard cap — the two shards of every running task are pinned
/// (PinGuard per task), so when they alone exceed the budget the cache
/// holds just them. Loads are charged to the ExecContext memory budget and
/// released on eviction, so an armed budget sees shard residency like any
/// other tracked allocation.
/// The pin/evict/charge protocol itself lives in src/util/pinned_byte_cache.h,
/// annotated for -Wthread-safety and exhaustively model-checked in
/// tests/model/cache_model_test.cpp.
using ShardCache = PinnedByteLruCache<LoadedShard>;

uint64_t ShardKey(int side, uint32_t tile) {
  return (static_cast<uint64_t>(side) << 32) | tile;
}

/// Fetches the resident shard for (side, tile) through the cache, mapping
/// the shard file on a miss and folding the load telemetry into \p stats.
/// Null result carries the load failure (or budget trip) in \p status.
const LoadedShard* FetchShard(ShardCache* cache, int side,
                              const ShardSet& set, uint32_t tile,
                              ShardStats* stats, Status* status) {
  return cache->Get(
      ShardKey(side, tile),
      [&set, tile, stats](LoadedShard* shard, size_t* bytes) {
        Status st = set.LoadTile(tile, shard);
        if (!st.ok()) return st;
        ++stats->shard_loads;
        stats->bytes_mapped += shard->map.Size();
        stats->bytes_faulted += shard->eager_bytes;
        *bytes = shard->resident_bytes;
        return Status::Ok();
      },
      status);
}

/// Position of \p p on an order-16 Hilbert curve laid over \p domain.
uint64_t HilbertKey(const Box& domain, const Point& p) {
  constexpr uint32_t kOrder = 16;
  constexpr double kCells = 65536.0;
  const double width = domain.Width() > 0 ? domain.Width() : 1.0;
  const double height = domain.Height() > 0 ? domain.Height() : 1.0;
  const double nx = (p.x - domain.min.x) / width;
  const double ny = (p.y - domain.min.y) / height;
  const auto x = static_cast<uint32_t>(
      std::min(kCells - 1.0, std::max(0.0, nx * kCells)));
  const auto y = static_cast<uint32_t>(
      std::min(kCells - 1.0, std::max(0.0, ny * kCells)));
  return HilbertXYToD(kOrder, x, y);
}

/// One tile-pair task plus its schedule key.
struct TilePairTask {
  uint32_t r_tile = 0;
  uint32_t s_tile = 0;
  uint64_t group = 0;    ///< Hilbert key of the major tile's centre.
  uint32_t major = 0;    ///< The major side's tile.
  uint64_t hilbert = 0;  ///< Hilbert key of the tile intersection's centre.
};

/// Builds the task list: every (r-tile, s-tile) with intersecting tile
/// rectangles. Tasks are grouped by the tile of the major side — the side
/// whose shards are larger on average (R on a tie) — so each major shard is
/// needed by one run of consecutive tasks. Groups follow the Hilbert order
/// of their tile's centre; inside a group tasks follow the Hilbert order of
/// the tile intersection's centre, so the minor shards come in spatial
/// order too. (r_tile, s_tile) breaks ties.
std::vector<TilePairTask> BuildTasks(const ShardSet& r_shards,
                                     const ShardSet& s_shards) {
  const TileGrid& rg = r_shards.Grid();
  const TileGrid& sg = s_shards.Grid();
  Box domain = rg.domain;
  domain.Expand(sg.domain);
  const bool r_major =
      static_cast<double>(r_shards.TotalShardBytes()) / r_shards.Tiles() >=
      static_cast<double>(s_shards.TotalShardBytes()) / s_shards.Tiles();
  const TileGrid& major_grid = r_major ? rg : sg;

  std::vector<TilePairTask> tasks;
  for (uint32_t rt = 0; rt < rg.Tiles(); ++rt) {
    if (r_shards.Tile(rt).object_count == 0) continue;
    const Box rb = rg.TileBounds(rt);
    // Candidate s-tiles by column/row range instead of a full scan.
    uint32_t c_lo, c_hi;
    sg.ColumnRange(rb.min.x, rb.max.x, &c_lo, &c_hi);
    for (uint32_t c = c_lo; c <= c_hi; ++c) {
      uint32_t row_lo, row_hi;
      sg.RowRange(c, rb.min.y, rb.max.y, &row_lo, &row_hi);
      for (uint32_t row = row_lo; row <= row_hi; ++row) {
        const uint32_t st = sg.TileId(c, row);
        if (s_shards.Tile(st).object_count == 0) continue;
        const Box sb = sg.TileBounds(st);
        if (!rb.Intersects(sb)) continue;
        const Point center{
            0.5 * (std::max(rb.min.x, sb.min.x) + std::min(rb.max.x, sb.max.x)),
            0.5 * (std::max(rb.min.y, sb.min.y) +
                   std::min(rb.max.y, sb.max.y))};
        const uint32_t major = r_major ? rt : st;
        tasks.push_back(TilePairTask{
            rt, st, HilbertKey(domain, major_grid.TileBounds(major).Center()),
            major, HilbertKey(domain, center)});
      }
    }
  }
  std::sort(tasks.begin(), tasks.end(),
            [](const TilePairTask& a, const TilePairTask& b) {
              return std::tie(a.group, a.major, a.hilbert, a.r_tile,
                              a.s_tile) < std::tie(b.group, b.major,
                                                   b.hilbert, b.r_tile,
                                                   b.s_tile);
            });
  return tasks;
}

/// The reference point of a candidate pair: the componentwise max of the
/// two MBR min corners — inside both MBRs whenever they intersect. Exactly
/// one (r-tile, s-tile) task owns it under the two TileOf partitions.
Point ReferencePoint(const Box& r, const Box& s) {
  return Point{std::max(r.min.x, s.min.x), std::max(r.min.y, s.min.y)};
}

/// What one task produced. Each task has its own slot, so the workers
/// share only the cache; the slots are merged in task order afterwards.
struct TaskOutput {
  std::vector<CandidatePair> pairs;  ///< Answered pairs, global indices.
  std::vector<de9im::Relation> relations;
  PipelineStats stats;
  ShardStats shard_stats;  ///< Load, dedup and tasks_run counters.
  Status load_status;      ///< Why a shard could not be fetched.
  bool cut = false;        ///< The ExecContext stopped the task.
};

/// Runs one tile-pair task: pins and fetches its two shards, joins their
/// MBRs, keeps the pairs it owns and answers them with
/// ParallelFindRelation on \p join's threads.
void RunTask(Method method, const TilePairTask& task, const ShardSet& r_shards,
             const ShardSet& s_shards, const JoinOptions& join,
             ShardCache* cache, TaskOutput* out) {
  // Pin the task's two shards for the whole task, then fetch: neither can
  // be evicted while the task runs, whatever the budget says.
  const ShardCache::PinGuard r_pin(cache, ShardKey(0, task.r_tile));
  const ShardCache::PinGuard s_pin(cache, ShardKey(1, task.s_tile));
  const LoadedShard* r_shard = FetchShard(cache, 0, r_shards, task.r_tile,
                                          &out->shard_stats, &out->load_status);
  if (r_shard == nullptr) return;
  const LoadedShard* s_shard = FetchShard(cache, 1, s_shards, task.s_tile,
                                          &out->shard_stats, &out->load_status);
  if (s_shard == nullptr) return;

  // Local MBR filter; its (r, s)-sorted output keeps the task's pair order
  // (and with it the join loop's schedule) independent of thread count.
  MbrJoin::Options mbr_options;
  mbr_options.num_threads = join.num_threads;
  mbr_options.exec = join.exec;
  const std::vector<CandidatePair> local =
      MbrJoin::Join(r_shard->mbrs, s_shard->mbrs, mbr_options);
  if (join.exec != nullptr && join.exec->StopRequested()) {
    // A cut during the filter leaves an incomplete candidate set; the task
    // contributes nothing (other tasks' answers stay valid).
    out->cut = true;
    return;
  }

  // Reference-point dedup: keep only the pairs this task owns.
  std::vector<CandidatePair> owned;
  owned.reserve(local.size());
  for (const CandidatePair& p : local) {
    const Point ref =
        ReferencePoint(r_shard->mbrs[p.r_idx], s_shard->mbrs[p.s_idx]);
    if (r_shards.Grid().TileOf(ref) == task.r_tile &&
        s_shards.Grid().TileOf(ref) == task.s_tile) {
      owned.push_back(p);
    } else {
      ++out->shard_stats.pairs_deduped;
    }
  }

  // The parallel join loop over local views; the APRIL side reads
  // zero-copy off the two mappings.
  DatasetView r_view;
  r_view.objects = &r_shard->objects;
  r_view.cstore = &r_shard->cstore;
  DatasetView s_view;
  s_view.objects = &s_shard->objects;
  s_view.cstore = &s_shard->cstore;
  ParallelJoinResult result =
      ParallelFindRelation(method, r_view, s_view, owned, join);
  out->stats = result.stats;

  // Keep every answered pair, mapped back to global indices. On a cut the
  // unanswered remainder is dropped loss-lessly (PartialResult).
  for (size_t i = 0; i < owned.size(); ++i) {
    if (!result.partial.Answered(i)) continue;
    out->pairs.push_back(CandidatePair{r_shard->ids[owned[i].r_idx],
                                       s_shard->ids[owned[i].s_idx]});
    out->relations.push_back(result.relations[i]);
  }
  if (!result.status.ok()) {
    out->cut = true;
    return;
  }
  out->shard_stats.tasks_run = 1;
}

}  // namespace

ShardJoinResult ShardedFindRelation(Method method, const ShardSet& r_shards,
                                    const ShardSet& s_shards,
                                    const ShardJoinOptions& options) {
  ShardJoinResult result;
  ExecContext* exec = options.join.exec;
  ShardCache cache(options.shard_cache_bytes, exec);

  const std::vector<TilePairTask> tasks = BuildTasks(r_shards, s_shards);
  result.shard_stats.tasks = tasks.size();

  // Whole tasks go to the workers. A task's own MBR join and join loop get
  // the threads left over: one each once there are as many tasks as
  // threads, all of them for a one-task set.
  const unsigned threads =
      options.join.num_threads != 0
          ? options.join.num_threads
          : std::max(1u, std::thread::hardware_concurrency());
  const auto workers = static_cast<unsigned>(
      std::min<size_t>(threads, std::max<size_t>(1, tasks.size())));
  JoinOptions task_join = options.join;
  if (workers > 1) task_join.num_threads = std::max(1u, threads / workers);

  std::vector<TaskOutput> outputs(tasks.size());
  STJ_ATOMIC_DOC("task cursor; fetch_add by every worker, each task is claimed by exactly one");
  std::atomic<size_t> next{0};
  STJ_ATOMIC_DOC("set by a worker whose task failed a shard load, read by every worker before each claim; every task below the failing one was claimed before it, so a late read never changes the reported task");
  std::atomic<bool> load_failed{false};
  internal::RunWorkers(workers, [&](unsigned) {
    ExecContext::Scope scope(exec);
    while (!load_failed.load()) {
      const size_t i = next.fetch_add(1);
      if (i >= tasks.size() || scope.CheckIn()) break;
      RunTask(method, tasks[i], r_shards, s_shards, task_join, &cache,
              &outputs[i]);
      if (!outputs[i].load_status.ok()) load_failed.store(true);
    }
  });

  // A failed load reports the lowest failing task's Status and keeps the
  // answers of the tasks before it — what a one-thread run stopping there
  // prints, whatever the other workers were doing.
  size_t answered_tasks = tasks.size();
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (!outputs[i].load_status.ok()) {
      result.status = outputs[i].load_status;
      answered_tasks = i;
      break;
    }
  }
  bool cut = false;
  for (size_t i = 0; i < tasks.size(); ++i) {
    const TaskOutput& out = outputs[i];
    MergeStats(out.stats, &result.stats);
    ShardStats& ss = result.shard_stats;
    ss.tasks_run += out.shard_stats.tasks_run;
    ss.shard_loads += out.shard_stats.shard_loads;
    ss.bytes_mapped += out.shard_stats.bytes_mapped;
    ss.bytes_faulted += out.shard_stats.bytes_faulted;
    ss.pairs_deduped += out.shard_stats.pairs_deduped;
    cut = cut || out.cut;
    if (i >= answered_tasks) continue;
    ss.pairs_emitted += out.pairs.size();
    result.pairs.insert(result.pairs.end(), out.pairs.begin(), out.pairs.end());
    result.relations.insert(result.relations.end(), out.relations.begin(),
                            out.relations.end());
  }

  // Fold the cache-side counters into the scheduler telemetry (loads and
  // mapping bytes were accounted per task).
  const PinnedCacheStats cache_stats = cache.Stats();
  result.shard_stats.shard_hits = cache_stats.hits;
  result.shard_stats.shards_evicted = cache_stats.evictions;
  result.shard_stats.cache_peak_bytes = cache_stats.peak_bytes;

  if (result.status.ok() && (cut || (exec != nullptr && exec->StopRequested()))) {
    result.status = exec != nullptr ? exec->ToStatus()
                                    : Status::Cancelled("join cut short");
  }

  // Canonical (r, s) order: directly comparable with the single-arena
  // reference join (each global pair was reported by exactly one task).
  std::vector<uint32_t> order(result.pairs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return result.pairs[a] < result.pairs[b];
  });
  std::vector<CandidatePair> pairs;
  std::vector<de9im::Relation> relations;
  pairs.reserve(order.size());
  relations.reserve(order.size());
  for (const uint32_t i : order) {
    pairs.push_back(result.pairs[i]);
    relations.push_back(result.relations[i]);
  }
  result.pairs = std::move(pairs);
  result.relations = std::move(relations);
  return result;
}

Status BuildShardSet(const std::string& dir,
                     const std::vector<SpatialObject>& objects,
                     const CompressedAprilStore& store,
                     const PartitionOptions& options,
                     TilePartition* partition_out,
                     ShardWriteStats* stats_out, unsigned num_threads,
                     const RasterGrid* raster_grid) {
  STJ_CHECK_MSG(store.Count() == objects.size(),
                "shard build needs an APRIL record per object");
  std::vector<Box> mbrs;
  mbrs.reserve(objects.size());
  std::vector<uint64_t> units;
  units.reserve(objects.size());
  const CompressedStoreSpans& spans = store.Spans();
  for (size_t i = 0; i < objects.size(); ++i) {
    mbrs.push_back(objects[i].geometry.Bounds());
    // The join's cost model: refinement work scales with vertices, filter
    // work with interval counts.
    units.push_back(objects[i].geometry.VertexCount() + spans.c_intervals[i] +
                    spans.p_intervals[i]);
  }
  TilePartition partition = BuildCostBalancedPartition(mbrs, units, options);
  Status st = WriteShardSet(dir, partition.grid, partition.tile_begin,
                            partition.entries, partition.tile_units, objects,
                            store, stats_out, num_threads, raster_grid);
  if (!st.ok()) return st;
  if (partition_out != nullptr) *partition_out = std::move(partition);
  return Status::Ok();
}

}  // namespace stj
