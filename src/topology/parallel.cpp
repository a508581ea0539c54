#include "src/topology/parallel.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>

#include "src/raster/hilbert.h"
#include "src/util/thread_annotations.h"

namespace stj {

namespace {

/// Bounds of the work-stealing block (DESIGN.md §14). The floor is coarse
/// enough that the shared cursor is touched rarely; the ceiling is the
/// refinement window: wide enough that a block holds several pairs per
/// r-object for the prepared cache to reuse, narrow enough that one block
/// of complexity-heavy pairs cannot serialize the tail.
constexpr size_t kMinBlock = 64;
constexpr size_t kMaxBlock = 256;

/// Blocks per worker the block-size rule aims for: enough claims per worker
/// that the last block to finish is a small share of the join.
constexpr size_t kBlocksPerWorker = 16;

/// Grid order for the scheduling curve: 256x256 buckets is plenty to group
/// pairs that share objects without the key computation showing up in
/// profiles.
constexpr uint32_t kScheduleOrder = 8;

unsigned ResolveThreads(unsigned requested, size_t pairs) {
  if (requested != 0) {
    // An explicit request is honoured (the concurrency tests rely on real
    // worker threads), but never with more workers than pairs.
    return static_cast<unsigned>(
        std::min<size_t>(requested, std::max<size_t>(1, pairs)));
  }
  unsigned n = std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  // Auto mode: no point spinning up workers for a handful of pairs each.
  const size_t max_useful = std::max<size_t>(1, pairs / 256);
  return static_cast<unsigned>(std::min<size_t>(n, max_useful));
}

/// Pairs per claimed block: about kBlocksPerWorker blocks per worker,
/// clamped to [kMinBlock, kMaxBlock]. Large joins get the full refinement
/// window; the sharded path's small per-task joins stay at the floor.
size_t BlockSize(size_t pairs, unsigned threads) {
  return std::clamp<size_t>(pairs / (size_t{threads} * kBlocksPerWorker),
                            kMinBlock, kMaxBlock);
}

/// The processing schedule of the parallel loop: pair indices sorted by the
/// Hilbert-curve position of each pair's reference point (the max of the
/// two MBR min-corners — the same point the filter join's
/// duplicate-avoidance rule uses), with the input index as tiebreaker.
/// Consecutive blocks then touch spatially clustered pairs, so an object
/// that appears in many pairs tends to be refined by one worker while its
/// geometry is still cache-resident. `keys` (indexed by input pair
/// position) is reused by the refinement order within an r-object group.
struct PairSchedule {
  std::vector<uint32_t> order;
  std::vector<uint64_t> keys;
};

PairSchedule HilbertSchedule(DatasetView r_view, DatasetView s_view,
                             const std::vector<CandidatePair>& pairs) {
  const std::vector<SpatialObject>& r = *r_view.objects;
  const std::vector<SpatialObject>& s = *s_view.objects;
  Box space;
  for (const SpatialObject& object : r) space.Expand(object.geometry.Bounds());
  for (const SpatialObject& object : s) space.Expand(object.geometry.Bounds());
  const uint32_t cells = 1u << kScheduleOrder;
  const double inv_w =
      space.Width() > 0 ? static_cast<double>(cells) / space.Width() : 0.0;
  const double inv_h =
      space.Height() > 0 ? static_cast<double>(cells) / space.Height() : 0.0;
  auto cell_of = [cells](double t) {
    if (t <= 0.0) return 0u;
    return std::min(static_cast<uint32_t>(t), cells - 1);
  };

  PairSchedule schedule;
  schedule.keys.resize(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const Box& rb = r[pairs[i].r_idx].geometry.Bounds();
    const Box& sb = s[pairs[i].s_idx].geometry.Bounds();
    const double ref_x = std::max(rb.min.x, sb.min.x);
    const double ref_y = std::max(rb.min.y, sb.min.y);
    schedule.keys[i] = HilbertXYToD(kScheduleOrder,
                                    cell_of((ref_x - space.min.x) * inv_w),
                                    cell_of((ref_y - space.min.y) * inv_h));
  }
  schedule.order.resize(pairs.size());
  std::iota(schedule.order.begin(), schedule.order.end(), 0u);
  const std::vector<uint64_t>& keys = schedule.keys;
  std::sort(schedule.order.begin(), schedule.order.end(),
            [&keys](uint32_t a, uint32_t b) {
              if (keys[a] != keys[b]) return keys[a] < keys[b];
              return a < b;  // deterministic schedule under key ties
            });
  return schedule;
}

PipelineOptions MakePipelineOptions(const JoinOptions& options) {
  return PipelineOptions{.time_stages = options.time_stages,
                         .prepared_cache_bytes = options.prepared_cache_bytes};
}

/// Copies one worker scope's watchdog observations into its stage stats
/// (merged across workers by MergeStats like the prepared_* telemetry).
void RecordScope(const ExecContext::Scope& scope, PipelineStats* stats) {
  stats->checkins = scope.checkins();
  if (scope.stopped() && scope.observed_cause() == StopCause::kDeadlineExceeded) {
    stats->deadline_hits = 1;
  }
  stats->cancel_latency_us = scope.observed_latency_us();
}

/// Find-relation query over the shared loop: Filter returns true when the
/// filter stage decided the pair (result written), false leaves the
/// candidate set for Refine.
struct FindRelationOps {
  de9im::Relation* relations;

  bool Filter(Pipeline* pipeline, uint32_t pair, uint32_t r, uint32_t s,
              de9im::RelationSet* candidates) const {
    const Pipeline::FilterOutcome out = pipeline->FilterStage(r, s);
    if (out.definite) {
      relations[pair] = out.relation;
      return true;
    }
    *candidates = out.candidates;
    return false;
  }

  void Refine(Pipeline* pipeline, uint32_t pair, uint32_t r, uint32_t s,
              de9im::RelationSet candidates) const {
    relations[pair] = pipeline->RefineStage(r, s, candidates);
  }
};

/// relate_p query over the shared loop: the candidate set rides along
/// unused (the predicate is fixed per run).
struct RelateOps {
  char* matches;
  de9im::Relation predicate;

  bool Filter(Pipeline* pipeline, uint32_t pair, uint32_t r, uint32_t s,
              de9im::RelationSet* /*candidates*/) const {
    switch (pipeline->FilterStagePredicate(r, s, predicate)) {
      case RelateAnswer::kYes:
        matches[pair] = 1;
        return true;
      case RelateAnswer::kNo:
        matches[pair] = 0;
        return true;
      case RelateAnswer::kInconclusive:
        return false;
    }
    return false;
  }

  void Refine(Pipeline* pipeline, uint32_t pair, uint32_t r, uint32_t s,
              de9im::RelationSet /*candidates*/) const {
    matches[pair] = pipeline->RefineStagePredicate(r, s, predicate) ? 1 : 0;
  }
};

/// A pair the filter stage left undetermined, waiting for the refinement
/// phase of its block.
struct Deferred {
  uint32_t r_idx;
  uint32_t s_idx;
  uint32_t pair;
  de9im::RelationSet candidates;
  uint64_t key;  ///< The pair's Hilbert schedule key.
};

/// The one join loop, shared by both queries. Single-threaded runs keep the
/// plain input-order loop (no schedule to build, no cursor) — the
/// differential oracle. Multi-threaded runs drain BlockSize() blocks of the
/// Hilbert schedule through an atomic cursor; a worker filters every pair
/// of its block, then refines the block's undetermined pairs grouped by
/// r-object (Hilbert key, then pair index within a group), so one prepared
/// R polygon serves its whole group. Processing order is pure scheduling:
/// every pair goes through the same FilterStage/RefineStage code, so the
/// answers equal the serial loop's at every thread count.
///
/// Cancellation (options.exec != nullptr): workers check in before each
/// filter and each refinement and, on a trip, stop at that pair boundary —
/// completed pairs stay valid, abandoned pairs (including a block's
/// undetermined remainder) are recorded as not-done. \p partial is then
/// filled with the done bitmap (cleared again when the run completed, so
/// unbounded callers pay nothing for it); \p status carries the trip cause.
template <typename Ops>
PipelineStats RunPairs(Method method, DatasetView r_view, DatasetView s_view,
                       const std::vector<CandidatePair>& pairs,
                       const JoinOptions& options, const Ops& ops,
                       Status* status, PartialResult* partial) {
  PipelineStats stats;
  const PipelineOptions pipeline_options = MakePipelineOptions(options);
  ExecContext* ctx = options.exec;
  partial->total = pairs.size();
  char* done = nullptr;
  if (ctx != nullptr) {
    partial->done.assign(pairs.size(), 0);
    done = partial->done.data();
  }
  const unsigned threads = ResolveThreads(options.num_threads, pairs.size());
  if (threads <= 1) {
    Pipeline pipeline(method, r_view, s_view, pipeline_options);
    ExecContext::Scope scope(ctx);
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (scope.CheckIn()) break;
      const auto pair = static_cast<uint32_t>(i);
      de9im::RelationSet candidates;
      if (!ops.Filter(&pipeline, pair, pairs[i].r_idx, pairs[i].s_idx,
                      &candidates)) {
        ops.Refine(&pipeline, pair, pairs[i].r_idx, pairs[i].s_idx,
                   candidates);
      }
      if (done != nullptr) done[i] = 1;
    }
    stats = pipeline.Stats();
    if (ctx != nullptr) RecordScope(scope, &stats);
  } else {
    const PairSchedule schedule = HilbertSchedule(r_view, s_view, pairs);
    const std::vector<uint32_t>& order = schedule.order;
    const size_t block = BlockSize(pairs.size(), threads);
    std::vector<PipelineStats> per_worker(threads);
    STJ_ATOMIC_DOC("work-stealing pair-block cursor; relaxed fetch_add, each block is claimed by exactly one worker");
    std::atomic<size_t> next{0};
    const unsigned used = internal::RunWorkers(threads, [&](unsigned worker) {
      Pipeline pipeline(method, r_view, s_view, pipeline_options);
      ExecContext::Scope scope(ctx);
      std::vector<Deferred> deferred;  // refinement scratch, reused
      deferred.reserve(block);
      while (!scope.stopped()) {
        const size_t begin = next.fetch_add(block);
        if (begin >= order.size()) break;
        const size_t end = std::min(order.size(), begin + block);
        deferred.clear();
        for (size_t i = begin; i < end; ++i) {
          if (scope.CheckIn()) break;
          const uint32_t pair = order[i];
          const CandidatePair& p = pairs[pair];
          de9im::RelationSet candidates;
          if (ops.Filter(&pipeline, pair, p.r_idx, p.s_idx, &candidates)) {
            if (done != nullptr) done[pair] = 1;
          } else {
            deferred.push_back(Deferred{p.r_idx, p.s_idx, pair, candidates,
                                        schedule.keys[pair]});
          }
        }
        std::sort(deferred.begin(), deferred.end(),
                  [](const Deferred& a, const Deferred& b) {
                    if (a.r_idx != b.r_idx) return a.r_idx < b.r_idx;
                    if (a.key != b.key) return a.key < b.key;
                    return a.pair < b.pair;
                  });
        for (const Deferred& d : deferred) {
          if (scope.CheckIn()) break;
          ops.Refine(&pipeline, d.pair, d.r_idx, d.s_idx, d.candidates);
          if (done != nullptr) done[d.pair] = 1;
        }
      }
      per_worker[worker] = pipeline.Stats();
      if (ctx != nullptr) RecordScope(scope, &per_worker[worker]);
    });
    for (unsigned w = 0; w < used; ++w) MergeStats(per_worker[w], &stats);
  }

  if (ctx != nullptr && ctx->StopRequested()) {
    *status = ctx->ToStatus();
    partial->completed = 0;
    for (const char d : partial->done) partial->completed += (d != 0) ? 1 : 0;
  } else {
    *status = Status::Ok();
    partial->completed = partial->total;
    partial->done.clear();  // complete: the bitmap carries no information
  }
  return stats;
}

}  // namespace

ParallelJoinResult ParallelFindRelation(Method method, DatasetView r_view,
                                        DatasetView s_view,
                                        const std::vector<CandidatePair>& pairs,
                                        const JoinOptions& options) {
  ParallelJoinResult result;
  if (pairs.empty()) return result;  // no workers, no per-worker state
  result.relations.resize(pairs.size());
  result.stats = RunPairs(method, r_view, s_view, pairs, options,
                          FindRelationOps{result.relations.data()},
                          &result.status, &result.partial);
  return result;
}

ParallelRelateResult ParallelRelate(Method method, DatasetView r_view,
                                    DatasetView s_view,
                                    const std::vector<CandidatePair>& pairs,
                                    de9im::Relation predicate,
                                    const JoinOptions& options) {
  ParallelRelateResult result;
  if (pairs.empty()) return result;  // no workers, no per-worker state
  result.matches.resize(pairs.size(), 0);
  result.stats = RunPairs(method, r_view, s_view, pairs, options,
                          RelateOps{result.matches.data(), predicate},
                          &result.status, &result.partial);
  return result;
}

}  // namespace stj
