#pragma once

#include <cstddef>
#include <vector>

#include "src/join/mbr_join.h"
#include "src/topology/pipeline.h"
#include "src/util/exec_context.h"
#include "src/util/parallel_for.h"  // internal::RunChunks / RunWorkers
#include "src/util/status.h"

namespace stj {

/// Execution knobs of the parallel join loop. Every worker's Pipeline
/// inherits time_stages and the cache budgets; the budgets are per worker
/// (total cache memory scales with the thread count).
struct JoinOptions {
  unsigned num_threads = 0;  ///< 0 = hardware concurrency.
  bool time_stages = false;
  /// Per-worker PreparedPolygon cache budget in bytes; 0 disables the cache
  /// (see PipelineOptions::prepared_cache_bytes). A pure performance knob:
  /// results are identical for every value.
  size_t prepared_cache_bytes = kDefaultPreparedCacheBytes;
  /// Optional per-query deadline/cancel/budget carrier (exec_context.h).
  /// When set, every worker checks in before each pair's filter step and
  /// before its refinement; a trip stops the join cooperatively with a
  /// loss-less PartialResult. Null (the default) keeps the unbounded
  /// run-to-completion behaviour at zero overhead.
  ExecContext* exec = nullptr;
  /// Per-worker decoded-record cache budget for CompressedAprilStore inputs
  /// (see PipelineOptions::decoded_cache_bytes); 0 disables. A pure
  /// performance knob — decisions are identical.
  size_t decoded_cache_bytes = kDefaultDecodedCacheBytes;
};

/// Which pairs of a cancellable join were fully verified before the cut.
/// Loss-less cancellation contract: an answered pair's result is final and
/// identical to what the unbounded run would have produced (the pipelines
/// are deterministic per pair), so a caller can keep the partial answer,
/// report it, or re-run exactly the unanswered remainder — merging the two
/// runs by pair index reproduces the full result byte-for-byte.
struct PartialResult {
  uint64_t completed = 0;  ///< Pairs fully verified before the cut.
  uint64_t total = 0;      ///< Pairs requested.
  /// done[i] != 0 iff pairs[i] was answered (relations[i] / matches[i] is
  /// valid). Empty on complete runs — completed == total is the cheap test.
  std::vector<char> done;

  bool Complete() const { return completed == total; }
  bool Answered(size_t i) const {
    return Complete() || (i < done.size() && done[i] != 0);
  }
};

/// Result of a (possibly multi-threaded) find-relation join.
struct ParallelJoinResult {
  /// relations[i] answers pairs[i], in input order. On a cut-short run only
  /// the entries with partial.Answered(i) are meaningful.
  std::vector<de9im::Relation> relations;
  /// Stage counters merged across all workers (timings are summed CPU time,
  /// not wall time).
  PipelineStats stats;
  /// Ok on complete runs; kCancelled / kDeadlineExceeded /
  /// kResourceExhausted when JoinOptions::exec tripped mid-join.
  Status status;
  /// Which pairs were answered before a trip (all of them when status.ok()).
  PartialResult partial;
};

/// Evaluates find-relation for every candidate pair with \p method, fanning
/// the pairs out over options.num_threads workers (0 = hardware
/// concurrency). One thread runs the pairs in input order.
///
/// Scheduling (DESIGN.md §14): refinement cost is wildly skewed by polygon
/// complexity (Fig. 8), so a static partition lets one unlucky chunk
/// serialize the whole join. Instead the pairs are pre-sorted by the
/// Hilbert-curve position of their reference tile and workers claim blocks
/// of that schedule through a shared atomic cursor until the list is
/// drained. The block size follows the input: pairs / (threads x 16),
/// clamped to [64, 256]. A worker filters every pair of its block, then
/// refines the block's undetermined pairs grouped by r-object, so one
/// prepared R polygon serves its whole group.
///
/// Each worker owns a private Pipeline (the shared dataset views are
/// read-only), so no synchronisation is needed beyond the block cursor and
/// the final join. relations[i] is written by exactly one worker; results
/// are deterministic and identical to the single-threaded run regardless of
/// thread count. options.time_stages enables per-pair stage timers in every
/// worker (PipelineStats::filter_seconds / refine_seconds; summed CPU
/// seconds across workers). A worker exception propagates to the caller
/// (see internal::RunWorkers).
ParallelJoinResult ParallelFindRelation(Method method, DatasetView r_view,
                                        DatasetView s_view,
                                        const std::vector<CandidatePair>& pairs,
                                        const JoinOptions& options);

/// As above for a relate_p predicate join; returns one bool per pair.
struct ParallelRelateResult {
  std::vector<char> matches;  ///< 1 where the predicate holds.
  PipelineStats stats;
  /// Same cancellation surface as ParallelJoinResult.
  Status status;
  PartialResult partial;
};
ParallelRelateResult ParallelRelate(Method method, DatasetView r_view,
                                    DatasetView s_view,
                                    const std::vector<CandidatePair>& pairs,
                                    de9im::Relation predicate,
                                    const JoinOptions& options);

}  // namespace stj
