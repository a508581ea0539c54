#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/de9im/matrix.h"
#include "src/de9im/relation.h"
#include "src/geometry/polygon.h"
#include "src/geometry/prepared_polygon.h"
#include "src/join/mbr_join.h"
#include "src/raster/april.h"
#include "src/raster/april_compressed.h"
#include "src/raster/april_store.h"
#include "src/raster/decoded_block_cache.h"
#include "src/topology/find_relation.h"
#include "src/topology/prepared_cache.h"
#include "src/topology/relate_predicate.h"
#include "src/util/timer.h"

namespace stj {

/// The four compared find-relation methods (Sec. 4).
enum class Method : uint8_t {
  kST2,    ///< MBR filter + refinement with all 8 relations.
  kOP2,    ///< MBR-relationship-narrowed refinement (Sec. 3.1 only).
  kApril,  ///< OP2 + APRIL intersection-only intermediate filter [14].
  kPC,     ///< The paper's method (Sec. 3): full P+C intermediate filters.
};

const char* ToString(Method method);

/// The approximations a join's filter stage reads: r[i] is 1 when some
/// candidate's filter fetches the lists of object i of R, s[j] likewise
/// for S. Find-relation (no \p predicate) with kPC or kApril reads both
/// objects of every candidate. A kPC relate_p query reads only the objects
/// of candidates that RelateFromMbrs leaves inconclusive, the rule
/// Pipeline::FilterStagePredicate applies before it fetches any list.
/// kST2, kOP2 and the other relate_p methods read none. A join over
/// approximations built for exactly these objects (the demand mask of
/// BuildAprilApproximations) answers every pair as over a full build,
/// without a fallback_refined pair.
struct FilterDemand {
  std::vector<uint8_t> r;
  std::vector<uint8_t> s;
};
FilterDemand FilterDemandOf(Method method,
                            std::optional<de9im::Relation> predicate,
                            const std::vector<SpatialObject>& r_objects,
                            const std::vector<SpatialObject>& s_objects,
                            const std::vector<CandidatePair>& pairs);

/// One side of a join: objects plus (for kApril/kPC) their approximations.
/// Approximations come from one of three storages, index-aligned with
/// `objects` either way: a legacy vector<AprilApproximation>, an
/// arena-backed AprilStore (april_store.h), or a blocked-codec
/// CompressedAprilStore (april_compressed.h). Each side picks its own:
/// `cstore` when set (read through the pipeline's decoded-record cache),
/// else `store`, else `april`; all may be null for methods that do not use
/// approximations. Join results are identical across all storages and
/// pairings — the filters always run on the same flat lists.
struct DatasetView {
  const std::vector<SpatialObject>* objects = nullptr;
  const std::vector<AprilApproximation>* april = nullptr;
  const AprilStore* store = nullptr;
  const CompressedAprilStore* cstore = nullptr;
};

/// Default per-worker prepared-geometry cache budget. Sized so the indexed
/// working set of a Hilbert-ordered refinement schedule (the reused objects
/// of a few consecutive blocks) stays resident: at the ~41 B/vertex
/// estimate (PreparedPolygon::EstimateBytes) this holds roughly 800k
/// polygon vertices per worker and side.
inline constexpr size_t kDefaultPreparedCacheBytes = size_t{32} << 20;

/// Execution knobs of one Pipeline (one refinement worker).
struct PipelineOptions {
  /// Enables per-pair stage timers (small overhead; used by the Fig. 8(b)
  /// harness, off for pure throughput runs).
  bool time_stages = false;
  /// Byte budget of the per-worker PreparedPolygon cache that amortises
  /// edge-index/representative-point construction across the
  /// candidate pairs an object participates in. 0 disables caching: every
  /// refinement is a one-shot RelateEngine::Relate of the two polygons. The
  /// cache is a pure performance layer — results are byte-identical for
  /// every budget.
  size_t prepared_cache_bytes = kDefaultPreparedCacheBytes;
};

/// Per-run pipeline counters and stage timings, the raw material of
/// Fig. 7(b) (undetermined %) and Fig. 8(b) (stage costs).
struct PipelineStats {
  uint64_t pairs = 0;
  uint64_t decided_by_mbr = 0;
  uint64_t decided_by_filter = 0;
  uint64_t refined = 0;  ///< "Undetermined" pairs that needed DE-9IM.
  /// Pairs refined because an APRIL approximation was missing or flagged
  /// corrupt (degraded mode) rather than because the filter was
  /// inconclusive. Always <= refined. Zero on healthy runs; a nonzero value
  /// means results are still exact but the intermediate filter was bypassed
  /// for that many pairs.
  uint64_t fallback_refined = 0;
  /// Prepared-geometry cache telemetry: each refined pair performs two
  /// lookups (one per side), each counted as a hit (cached, indexed
  /// PreparedPolygon reused) or a miss. A missed side is related bare
  /// unless the pair is large on both sides or its object's scans reach
  /// PreparedPolygon::kIndexAfterScans during the pair; then its indexes
  /// are built (counted in prepared_builds) and cached. All three stay zero
  /// when the cache is disabled (prepared_cache_bytes == 0).
  uint64_t prepared_hits = 0;
  uint64_t prepared_misses = 0;
  uint64_t prepared_builds = 0;  ///< Always <= prepared_misses.
  /// ExecContext watchdog counters for this stage (exec_context.h), merged
  /// across workers like the prepared_* telemetry. All zero when the join
  /// ran without an ExecContext.
  /// Cancellation check-ins: one before each pair's filter step, one more
  /// before its refinement in multi-threaded runs.
  uint64_t checkins = 0;
  /// Workers that stopped because the deadline tripped (summed; each worker
  /// scope reports at most once).
  uint64_t deadline_hits = 0;
  /// Worst observed trip-to-worker-stop latency in microseconds (max across
  /// workers) — the realised cooperative-cancellation latency of the stage.
  uint64_t cancel_latency_us = 0;
  /// Decoded-record cache telemetry (CompressedAprilStore sides only; zero
  /// otherwise). One lookup per filtered pair and compressed side;
  /// `decoded_corrupt` counts lookups that hit a record whose payload
  /// failed to decode — those pairs degrade to refinement exactly like
  /// usable=false placeholders.
  uint64_t decoded_hits = 0;
  uint64_t decoded_misses = 0;
  uint64_t decoded_corrupt = 0;
  double filter_seconds = 0.0;  ///< MBR + intermediate filter time.
  double refine_seconds = 0.0;  ///< DE-9IM computation + mask matching time.
  /// Time spent building PreparedPolygon indexes (the prepared_builds) — a
  /// subset of refine_seconds. Only filled when time_stages is on.
  double prepared_build_seconds = 0.0;

  double UndeterminedPercent() const {
    return pairs == 0 ? 0.0
                      : 100.0 * static_cast<double>(refined) /
                            static_cast<double>(pairs);
  }
};

/// Accumulates one worker's stage counters into a run total: counts and CPU
/// timings sum; the worst-case cancel latency merges by max. Used by the
/// parallel join loop (parallel.cpp) and the shard scheduler.
void MergeStats(const PipelineStats& from, PipelineStats* into);

/// Executes find-relation and relate_p queries over candidate pairs with one
/// of the four methods, accumulating stage statistics.
///
/// The pipeline owns no data; it references the two datasets of a join
/// scenario. Refinement computes the DE-9IM matrix with the from-scratch
/// relate engine and matches it against the masks of the surviving
/// candidate relations in specific-to-general order. The engine relates
/// only the boundary inside MBR(r) ∩ MBR(s) and works on each side either
/// through that object's edge index or bare, by
/// scanning its edges. Indexes come from two bounded per-worker
/// PreparedPolygon caches. An object is indexed, and cached, once this
/// worker has spent about an index's build cost scanning it bare
/// (PreparedPolygon::kIndexAfterScans, counted across its pairs and
/// within one), so an object that recurs in many candidate pairs — which
/// the Hilbert-ordered parallel schedule keeps adjacent — or that many
/// points are located against is indexed once, and an object met a few
/// times never pays for an index. A pair of two
/// large polygons (RelateEngine::IndexBoth) indexes both sides at once,
/// because scanning one against the other grows with the product of their
/// sizes. No choice changes a result: every path funnels into the same
/// relate body.
///
/// Degraded mode: when a pair's APRIL approximation is missing (no vector,
/// short vector) or flagged corrupt by the I/O layer (usable == false), the
/// kApril/kPC methods skip the raster filter for that pair and refine with
/// the MBR-narrowed candidates instead — results stay exact, and the pair is
/// counted in PipelineStats::fallback_refined.
///
/// Threading contract: a Pipeline is confined to one thread. Its mutable
/// state (stats counters, the two PreparedPolygon caches and their lazily
/// built components) is unsynchronised by design — the parallel drivers in
/// parallel.h give every worker a private Pipeline over the shared
/// read-only DatasetViews and merge stats after the join. Sharing one
/// Pipeline across threads is a data race.
class Pipeline {
 public:
  Pipeline(Method method, DatasetView r_view, DatasetView s_view,
           const PipelineOptions& options = PipelineOptions());

  /// Outcome of the filter stage (MBR + intermediate filters) for one pair:
  /// either a definite relation or the narrowed candidate set refinement
  /// must discriminate. The parallel join loop (parallel.cpp) carries the
  /// candidates of a block's undetermined pairs to its refinement phase.
  struct FilterOutcome {
    bool definite = false;
    de9im::Relation relation = de9im::Relation::kDisjoint;
    de9im::RelationSet candidates;
  };

  /// Runs the filter stage for pair (r_idx, s_idx): counts the pair, applies
  /// the method's MBR + intermediate filters, and either decides the
  /// relation or returns the candidate set for RefineStage. FindRelation is
  /// exactly FilterStage followed by RefineStage when not definite, so
  /// block execution (which separates the two calls in time and sorts the
  /// undetermined pairs between them) produces byte-identical decisions.
  FilterOutcome FilterStage(uint32_t r_idx, uint32_t s_idx);

  /// Refinement stage: DE-9IM over exact geometry, matched against
  /// \p candidates (as returned by a non-definite FilterStage).
  de9im::Relation RefineStage(uint32_t r_idx, uint32_t s_idx,
                              de9im::RelationSet candidates) {
    return Refine(r_idx, s_idx, candidates);
  }

  /// Filter stage of a relate_p query: kYes/kNo decide the pair (counters
  /// updated), kInconclusive means RefineStagePredicate must run.
  RelateAnswer FilterStagePredicate(uint32_t r_idx, uint32_t s_idx,
                                    de9im::Relation p);

  /// Refinement stage of a relate_p query (full DE-9IM + mask test).
  bool RefineStagePredicate(uint32_t r_idx, uint32_t s_idx, de9im::Relation p);

  /// The most specific topological relation of pair (r_idx, s_idx).
  de9im::Relation FindRelation(uint32_t r_idx, uint32_t s_idx);

  /// Whether predicate \p p holds for pair (r_idx, s_idx) (Sec. 3.3). Uses
  /// the predicate-specific filters for kPC; other methods go through their
  /// find-relation machinery and test the mask on the refined matrix.
  bool Relate(uint32_t r_idx, uint32_t s_idx, de9im::Relation p);

  const PipelineStats& Stats() const { return stats_; }
  void ResetStats() { stats_ = PipelineStats{}; }

  Method GetMethod() const { return method_; }

 private:
  de9im::Relation Refine(uint32_t r_idx, uint32_t s_idx,
                         de9im::RelationSet candidates);

  /// Counts a refined pair and computes its DE-9IM matrix, each side
  /// served by PreparedFor (or both bare, or both indexed when large, with
  /// the cache disabled).
  de9im::Matrix RelatePair(uint32_t r_idx, uint32_t s_idx);

  /// The PreparedPolygon for object \p idx (geometry \p poly) on the side
  /// of \p cache: the cached, indexed instance on a hit; on a miss, a new
  /// one in \p scratch carrying the object's pass count, indexed now when
  /// \p index_now is set and otherwise bare until the relate's scans
  /// reach PreparedPolygon::kIndexAfterScans. The reference is valid for
  /// the current pair only.
  const PreparedPolygon& PreparedFor(PreparedCache* cache, const Polygon& poly,
                                     uint32_t idx, bool index_now,
                                     PreparedPolygon* scratch);

  /// After the relate of a pair that missed object \p idx: stores its pass
  /// count, and when \p scratch was indexed during the pair, counts and
  /// times the build and moves it into \p cache.
  void SettleMiss(PreparedCache* cache, uint32_t idx,
                  PreparedPolygon* scratch);

  /// Fetches the approximation of object \p idx on one side into \p out
  /// and returns true, or returns false when it is missing (no storage,
  /// index past its end), flagged corrupt, or undecodable — the
  /// degraded-mode signal that the pair must fall back to refinement. Reads
  /// the side's storage in DatasetView order: the compressed store through
  /// \p cache (its telemetry folded into stats_), else the arena store,
  /// else the legacy vector.
  bool AprilFor(const DatasetView& view, DecodedAprilCache* cache,
                uint32_t idx, AprilView* out);

  /// Both sides' approximations of pair (r_idx, s_idx): r first, then s,
  /// and s is not fetched when r's record is missing.
  bool PairAprilFor(uint32_t r_idx, uint32_t s_idx, AprilView* r,
                    AprilView* s) {
    return AprilFor(r_view_, &r_decoded_, r_idx, r) &&
           AprilFor(s_view_, &s_decoded_, s_idx, s);
  }

  Method method_;
  DatasetView r_view_;
  DatasetView s_view_;
  PipelineOptions options_;
  /// Per-side prepared caches (an object index means different things on
  /// the two sides, hence two maps; each side's key space is dense).
  PreparedCache r_prepared_;
  PreparedCache s_prepared_;
  /// Per-side decoded-record caches (same two-sided reasoning; empty and
  /// untouched unless that side carries a CompressedAprilStore).
  DecodedAprilCache r_decoded_;
  DecodedAprilCache s_decoded_;
  PipelineStats stats_;
};

}  // namespace stj
