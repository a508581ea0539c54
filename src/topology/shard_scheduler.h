#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/join/partitioner.h"
#include "src/raster/shard_io.h"
#include "src/topology/parallel.h"

namespace stj {

/// Out-of-core tile-pair join over two shard sets (ROADMAP item 2).
///
/// The scheduler turns a join R x S into tile-pair *tasks*: one task per
/// (r-tile, s-tile) whose tile rectangles intersect. Tasks execute against
/// only the two tiles' shards — mapped on demand, held in a byte-budgeted
/// LRU cache, evicted by munmap — so peak memory follows the cache budget,
/// not the dataset size. Within a task the join is exactly the in-memory
/// pipeline: MbrJoin over the tiles' local MBRs, then the parallel
/// find-relation loop (ParallelFindRelation) on local DatasetViews whose
/// APRIL side reads zero-copy off the mappings.
///
/// Determinism and exactness: objects are replicated into every tile their
/// MBR overlaps, so a candidate pair can surface in several tasks. Each
/// pair is *reported* by exactly one: the task whose tiles contain the
/// pair's reference point (the componentwise max of the two MBR min
/// corners — a point inside both MBRs) under each side's TileGrid::TileOf.
/// TileOf is a total partition of the plane, so the rule is exact — no
/// epsilons, no cross-task coordination — and the surviving pairs, sorted
/// by (r, s), are byte-identical to the single-arena join at every tile
/// grid, cache budget, and thread count.
///
/// Task order maximises shard reuse: tasks are grouped by the tile of the
/// *major* side — the side whose shards are larger on average — so each
/// major shard serves one run of consecutive tasks and is loaded about once
/// (exactly once at one thread).
/// Groups follow the Hilbert order of their tile's centre, and the tasks of
/// a group the Hilbert order of their tile-intersection centre, so the
/// minor shards are visited in spatial order too.
///
/// Parallelism: workers claim whole tasks through one atomic cursor, and a
/// task runs its MbrJoin and ParallelFindRelation on the threads left over
/// — one once there are as many tasks as threads, all of them for a
/// one-task set. Each task fills its own result slot; the slots are merged
/// and sorted by (r, s) after the workers joined.
struct ShardJoinOptions {
  /// Knobs for the join (threads, caches, ExecContext). num_threads is the
  /// whole join's budget, split between the task workers and each task's
  /// own joins as above. The ExecContext, when set, also covers the
  /// scheduler itself: shard loads are charged to its memory budget and
  /// each worker checks in once per task.
  JoinOptions join;
  /// LRU budget for resident shards, both sides together. The two shards of
  /// every running task are pinned, so the effective floor is one r-shard
  /// plus one s-shard per running task; a smaller budget degrades to
  /// exactly that working set (correct, just reload-heavy).
  size_t shard_cache_bytes = size_t{256} << 20;
};

/// Scheduler telemetry, merged alongside PipelineStats.
struct ShardStats {
  uint64_t tasks = 0;           ///< Tile-pair tasks scheduled.
  uint64_t tasks_run = 0;       ///< Tasks fully executed (<= tasks on cuts).
  uint64_t shard_loads = 0;     ///< Cache misses (LoadTile calls).
  uint64_t shard_hits = 0;      ///< Cache hits.
  uint64_t shards_evicted = 0;
  uint64_t bytes_mapped = 0;    ///< Sum of mapped file bytes over loads.
  /// Bytes a load eagerly materialises (header, table, ids, geometry) —
  /// the mandatory fault-in; the APRIL remainder pages in lazily.
  uint64_t bytes_faulted = 0;
  uint64_t cache_peak_bytes = 0;  ///< High-water resident-shard bytes.
  /// Candidate pairs dropped by the reference-point rule (duplicates that
  /// another task reports).
  uint64_t pairs_deduped = 0;
  uint64_t pairs_emitted = 0;  ///< Pairs this join answered.
};

/// Result of a sharded find-relation join. `pairs` and `relations` are
/// index-aligned and sorted by (r, s) over *global* dataset indices;
/// every MBR-intersecting pair appears with its relation (kDisjoint
/// included), which makes the vectors directly comparable against the
/// single-arena reference join.
struct ShardJoinResult {
  std::vector<CandidatePair> pairs;
  std::vector<de9im::Relation> relations;
  PipelineStats stats;        ///< Merged across all tasks' executors.
  ShardStats shard_stats;
  /// Ok on complete runs; the ExecContext cause (kCancelled /
  /// kDeadlineExceeded / kResourceExhausted) on a cooperative cut. On a cut
  /// the vectors hold only answered pairs — a subset of the full run's
  /// (pair, relation) map, loss-lessly (parallel.h PartialResult contract).
  Status status;
};

/// Runs the sharded join. Both shard sets must be complete (written by
/// WriteShardSet); corruption surfaces as a kDataLoss status. A shard that
/// fails to load reports the Status of the lowest-numbered task that needed
/// it, with the answers of the tasks before that one — the same result at
/// every thread count.
ShardJoinResult ShardedFindRelation(Method method, const ShardSet& r_shards,
                                    const ShardSet& s_shards,
                                    const ShardJoinOptions& options);

/// Convenience builder glueing the layers for the CLI and tests: computes
/// per-object computational units (vertex count + APRIL interval count —
/// the cost model the partitioner balances), builds the cost-balanced
/// TilePartition, and persists the dataset as a shard set under \p dir,
/// writing the tiles on \p num_threads workers (0 = hardware concurrency;
/// see WriteShardSet). \p partition_out (optional) receives the partition
/// for inspection. The manifest records \p raster_grid (see
/// WriteShardSet), which a prepared join checks on both sides.
Status BuildShardSet(const std::string& dir,
                     const std::vector<SpatialObject>& objects,
                     const CompressedAprilStore& store,
                     const PartitionOptions& options,
                     TilePartition* partition_out = nullptr,
                     ShardWriteStats* stats_out = nullptr,
                     unsigned num_threads = 0,
                     const RasterGrid* raster_grid = nullptr);

}  // namespace stj
