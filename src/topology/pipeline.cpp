#include "src/topology/pipeline.h"

#include <algorithm>

#include "src/de9im/relate_engine.h"
#include "src/interval/interval_algebra.h"
#include "src/topology/mbr_relation.h"

namespace stj {

using de9im::Relation;
using de9im::RelationSet;

const char* ToString(Method method) {
  switch (method) {
    case Method::kST2: return "ST2";
    case Method::kOP2: return "OP2";
    case Method::kApril: return "APRIL";
    case Method::kPC: return "P+C";
  }
  return "?";
}

FilterDemand FilterDemandOf(Method method,
                            std::optional<de9im::Relation> predicate,
                            const std::vector<SpatialObject>& r_objects,
                            const std::vector<SpatialObject>& s_objects,
                            const std::vector<CandidatePair>& pairs) {
  FilterDemand demand{.r = std::vector<uint8_t>(r_objects.size(), 0),
                      .s = std::vector<uint8_t>(s_objects.size(), 0)};
  const bool reads_lists =
      method == Method::kPC || (method == Method::kApril && !predicate);
  if (!reads_lists) return demand;
  for (const CandidatePair& pair : pairs) {
    if (predicate &&
        RelateFromMbrs(*predicate, r_objects[pair.r_idx].geometry.Bounds(),
                       s_objects[pair.s_idx].geometry.Bounds()) !=
            RelateAnswer::kInconclusive) {
      continue;
    }
    demand.r[pair.r_idx] = 1;
    demand.s[pair.s_idx] = 1;
  }
  return demand;
}

void MergeStats(const PipelineStats& from, PipelineStats* into) {
  into->pairs += from.pairs;
  into->decided_by_mbr += from.decided_by_mbr;
  into->decided_by_filter += from.decided_by_filter;
  into->refined += from.refined;
  into->fallback_refined += from.fallback_refined;
  into->prepared_hits += from.prepared_hits;
  into->prepared_misses += from.prepared_misses;
  into->prepared_builds += from.prepared_builds;
  into->checkins += from.checkins;
  into->deadline_hits += from.deadline_hits;
  into->cancel_latency_us =
      std::max(into->cancel_latency_us, from.cancel_latency_us);
  into->decoded_hits += from.decoded_hits;
  into->decoded_misses += from.decoded_misses;
  into->decoded_corrupt += from.decoded_corrupt;
  into->filter_seconds += from.filter_seconds;
  into->refine_seconds += from.refine_seconds;
  into->prepared_build_seconds += from.prepared_build_seconds;
}

namespace {

/// RAII helper that adds elapsed time to a stats field when enabled.
class ScopedStageTime {
 public:
  ScopedStageTime(bool enabled, double* sink) : sink_(enabled ? sink : nullptr) {
    if (sink_ != nullptr) timer_.Reset();
  }
  ~ScopedStageTime() {
    if (sink_ != nullptr) *sink_ += timer_.ElapsedSeconds();
  }
  ScopedStageTime(const ScopedStageTime&) = delete;
  ScopedStageTime& operator=(const ScopedStageTime&) = delete;

 private:
  double* sink_;
  Timer timer_;
};

}  // namespace

Pipeline::Pipeline(Method method, DatasetView r_view, DatasetView s_view,
                   const PipelineOptions& options)
    : method_(method),
      r_view_(r_view),
      s_view_(s_view),
      options_(options),
      r_prepared_(options.prepared_cache_bytes),
      s_prepared_(options.prepared_cache_bytes),
      r_decoded_(kDefaultDecodedCacheBytes),
      s_decoded_(kDefaultDecodedCacheBytes) {}

bool Pipeline::AprilFor(const DatasetView& view, DecodedAprilCache* cache,
                        uint32_t idx, AprilView* out) {
  if (view.cstore != nullptr) {
    switch (cache->Fetch(*view.cstore, idx, out)) {
      case DecodedAprilCache::FetchOutcome::kHit:
        ++stats_.decoded_hits;
        return true;
      case DecodedAprilCache::FetchOutcome::kMiss:
        ++stats_.decoded_misses;
        return true;
      case DecodedAprilCache::FetchOutcome::kCorrupt:
        ++stats_.decoded_corrupt;
        return false;
      case DecodedAprilCache::FetchOutcome::kAbsent:
        return false;
    }
    return false;
  }
  if (view.store != nullptr) {
    if (idx >= view.store->Count() || !view.store->Usable(idx)) return false;
    *out = view.store->View(idx);
    return true;
  }
  if (view.april == nullptr || idx >= view.april->size()) return false;
  const AprilApproximation& april = (*view.april)[idx];
  if (!april.usable) return false;
  *out = AprilView(april);
  return true;
}

const PreparedPolygon& Pipeline::PreparedFor(PreparedCache* cache,
                                             const Polygon& poly,
                                             uint32_t idx, bool index_now,
                                             PreparedPolygon* scratch) {
  if (const PreparedPolygon* hit = cache->Find(idx)) {
    ++stats_.prepared_hits;
    return *hit;
  }
  ++stats_.prepared_misses;
  *scratch = PreparedPolygon(poly, cache->Scans(idx));
  if (index_now) scratch->Warm();
  return *scratch;
}

void Pipeline::SettleMiss(PreparedCache* cache, uint32_t idx,
                          PreparedPolygon* scratch) {
  cache->SetScans(idx, scratch->Scans());
  if (!scratch->Indexed()) return;
  ++stats_.prepared_builds;
  if (options_.time_stages) {
    stats_.prepared_build_seconds += scratch->BuildSeconds();
  }
  const size_t bytes = PreparedPolygon::EstimateBytes(scratch->Geometry());
  cache->Insert(idx, std::move(*scratch), bytes);
}

de9im::Matrix Pipeline::RelatePair(uint32_t r_idx, uint32_t s_idx) {
  ++stats_.refined;
  const Polygon& r_poly = (*r_view_.objects)[r_idx].geometry;
  const Polygon& s_poly = (*s_view_.objects)[s_idx].geometry;
  if (options_.prepared_cache_bytes == 0) {
    return de9im::RelateEngine::Relate(r_poly, s_poly);
  }
  const bool index_both = de9im::RelateEngine::IndexBoth(r_poly, s_poly);
  PreparedPolygon r_scratch;
  PreparedPolygon s_scratch;
  const PreparedPolygon& r =
      PreparedFor(&r_prepared_, r_poly, r_idx, index_both, &r_scratch);
  const PreparedPolygon& s =
      PreparedFor(&s_prepared_, s_poly, s_idx, index_both, &s_scratch);
  const de9im::Matrix matrix = de9im::RelateEngine::Relate(r, s);
  if (&r == &r_scratch) SettleMiss(&r_prepared_, r_idx, &r_scratch);
  if (&s == &s_scratch) SettleMiss(&s_prepared_, s_idx, &s_scratch);
  return matrix;
}

Relation Pipeline::Refine(uint32_t r_idx, uint32_t s_idx,
                          RelationSet candidates) {
  ScopedStageTime timing(options_.time_stages, &stats_.refine_seconds);
  return MostSpecificRelation(RelatePair(r_idx, s_idx), candidates);
}

Pipeline::FilterOutcome Pipeline::FilterStage(uint32_t r_idx, uint32_t s_idx) {
  ++stats_.pairs;
  const Box& r_mbr = (*r_view_.objects)[r_idx].geometry.Bounds();
  const Box& s_mbr = (*s_view_.objects)[s_idx].geometry.Bounds();

  const auto decided = [](Relation relation) {
    return FilterOutcome{
        .definite = true, .relation = relation, .candidates = RelationSet()};
  };
  const auto undetermined = [](RelationSet candidates) {
    return FilterOutcome{.definite = false,
                         .relation = Relation::kDisjoint,
                         .candidates = candidates};
  };

  switch (method_) {
    case Method::kST2: {
      // Plain 2-phase: MBR disjointness, then refinement with all masks.
      {
        ScopedStageTime timing(options_.time_stages, &stats_.filter_seconds);
        if (!r_mbr.Intersects(s_mbr)) {
          ++stats_.decided_by_mbr;
          return decided(Relation::kDisjoint);
        }
      }
      return undetermined(RelationSet::All());
    }
    case Method::kOP2: {
      // Optimised 2-phase: the MBR intersection case narrows the candidate
      // masks (Sec. 3.1); the cross case even decides outright.
      BoxRelation boxes;
      {
        ScopedStageTime timing(options_.time_stages, &stats_.filter_seconds);
        boxes = ClassifyBoxes(r_mbr, s_mbr);
        if (boxes == BoxRelation::kDisjoint) {
          ++stats_.decided_by_mbr;
          return decided(Relation::kDisjoint);
        }
        if (boxes == BoxRelation::kCross) {
          ++stats_.decided_by_mbr;
          return decided(Relation::kIntersects);
        }
      }
      return undetermined(MbrCandidates(boxes));
    }
    case Method::kApril: {
      // OP2 + intersection-only raster filter [14]: can decide disjoint, but
      // every other pair must still be refined (the filter cannot identify a
      // relation more specific than intersects).
      BoxRelation boxes;
      RelationSet candidates;
      {
        ScopedStageTime timing(options_.time_stages, &stats_.filter_seconds);
        boxes = ClassifyBoxes(r_mbr, s_mbr);
        if (boxes == BoxRelation::kDisjoint) {
          ++stats_.decided_by_mbr;
          return decided(Relation::kDisjoint);
        }
        if (boxes == BoxRelation::kCross) {
          ++stats_.decided_by_mbr;
          return decided(Relation::kIntersects);
        }
        candidates = MbrCandidates(boxes);
        AprilView ra;
        AprilView sa;
        if (!PairAprilFor(r_idx, s_idx, &ra, &sa)) {
          // Degraded mode: an approximation is missing or corrupt, so the
          // raster filter cannot run — fall back to OP2-style refinement
          // with the MBR-narrowed candidates (still exact, just slower).
          ++stats_.fallback_refined;
        } else if (!ListsOverlap(ra.conservative, sa.conservative)) {
          ++stats_.decided_by_filter;
          return decided(Relation::kDisjoint);
        } else if (ListsOverlap(ra.conservative, sa.progressive) ||
                   ListsOverlap(ra.progressive, sa.conservative)) {
          // Definitely intersecting: drop disjoint and meets from the masks
          // to check, but refinement is still required.
          candidates.Remove(Relation::kDisjoint);
          candidates.Remove(Relation::kMeets);
        }
      }
      return undetermined(candidates);
    }
    case Method::kPC: {
      // The paper's Algorithm 1 over the flat lists of both sides, whatever
      // storage each side reads them from.
      AprilView ra;
      AprilView sa;
      if (!PairAprilFor(r_idx, s_idx, &ra, &sa)) {
        // Degraded mode: without both approximations Algorithm 1 cannot run.
        // The MBRs still decide the cheap cases; everything else falls back
        // to refinement over the MBR-narrowed candidates (OP2-equivalent).
        BoxRelation boxes;
        {
          ScopedStageTime timing(options_.time_stages, &stats_.filter_seconds);
          boxes = ClassifyBoxes(r_mbr, s_mbr);
          if (boxes == BoxRelation::kDisjoint) {
            ++stats_.decided_by_mbr;
            return decided(Relation::kDisjoint);
          }
          if (boxes == BoxRelation::kCross) {
            ++stats_.decided_by_mbr;
            return decided(Relation::kIntersects);
          }
        }
        ++stats_.fallback_refined;
        return undetermined(MbrCandidates(boxes));
      }
      FilterDecision decision;
      {
        ScopedStageTime timing(options_.time_stages, &stats_.filter_seconds);
        decision = FindRelationFilter(r_mbr, ra, s_mbr, sa);
      }
      if (decision.definite) {
        if (decision.stage == DecisionStage::kMbrFilter) {
          ++stats_.decided_by_mbr;
        } else {
          ++stats_.decided_by_filter;
        }
        return decided(decision.relation);
      }
      return undetermined(decision.candidates);
    }
  }
  return decided(Relation::kDisjoint);
}

Relation Pipeline::FindRelation(uint32_t r_idx, uint32_t s_idx) {
  const FilterOutcome outcome = FilterStage(r_idx, s_idx);
  if (outcome.definite) return outcome.relation;
  return Refine(r_idx, s_idx, outcome.candidates);
}

bool Pipeline::RefineStagePredicate(uint32_t r_idx, uint32_t s_idx,
                                    Relation p) {
  ScopedStageTime timing(options_.time_stages, &stats_.refine_seconds);
  return RelationHolds(p, RelatePair(r_idx, s_idx));
}

RelateAnswer Pipeline::FilterStagePredicate(uint32_t r_idx, uint32_t s_idx,
                                            Relation p) {
  ++stats_.pairs;
  const Box& r_mbr = (*r_view_.objects)[r_idx].geometry.Bounds();
  const Box& s_mbr = (*s_view_.objects)[s_idx].geometry.Bounds();

  if (method_ == Method::kPC) {
    // The MBR case first: a pair it decides reads no list, which is why
    // FilterDemandOf leaves its objects out.
    RelateAnswer answer;
    {
      ScopedStageTime timing(options_.time_stages, &stats_.filter_seconds);
      answer = RelateFromMbrs(p, r_mbr, s_mbr);
    }
    if (answer == RelateAnswer::kInconclusive) {
      AprilView ra;
      AprilView sa;
      if (!PairAprilFor(r_idx, s_idx, &ra, &sa)) {
        // Degraded mode: without both approximations the pair refines.
        ++stats_.fallback_refined;
        return RelateAnswer::kInconclusive;
      }
      ScopedStageTime timing(options_.time_stages, &stats_.filter_seconds);
      answer = RelatePredicateFilter(p, r_mbr, ra, s_mbr, sa);
    }
    if (answer != RelateAnswer::kInconclusive) ++stats_.decided_by_filter;
    return answer;
  }

  // Other methods answer relate_p through their find-relation machinery:
  // the MBR filter handles disjointness, everything else refines.
  {
    ScopedStageTime timing(options_.time_stages, &stats_.filter_seconds);
    if (!r_mbr.Intersects(s_mbr)) {
      ++stats_.decided_by_mbr;
      return p == Relation::kDisjoint ? RelateAnswer::kYes : RelateAnswer::kNo;
    }
  }
  return RelateAnswer::kInconclusive;
}

bool Pipeline::Relate(uint32_t r_idx, uint32_t s_idx, Relation p) {
  switch (FilterStagePredicate(r_idx, s_idx, p)) {
    case RelateAnswer::kYes: return true;
    case RelateAnswer::kNo: return false;
    case RelateAnswer::kInconclusive: break;
  }
  return RefineStagePredicate(r_idx, s_idx, p);
}

}  // namespace stj
