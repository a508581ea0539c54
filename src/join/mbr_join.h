#pragma once

#include <cstdint>
#include <vector>

#include "src/geometry/box.h"
#include "src/util/exec_context.h"

namespace stj {

/// A candidate pair emitted by the filter step: indices into the two input
/// datasets whose MBRs intersect.
struct CandidatePair {
  uint32_t r_idx = 0;
  uint32_t s_idx = 0;

  friend bool operator==(const CandidatePair& a, const CandidatePair& b) {
    return a.r_idx == b.r_idx && a.s_idx == b.s_idx;
  }
  friend bool operator<(const CandidatePair& a, const CandidatePair& b) {
    if (a.r_idx != b.r_idx) return a.r_idx < b.r_idx;
    return a.s_idx < b.s_idx;
  }
};

/// In-memory MBR intersection join: the filter step of the pipeline
/// (the paper delegates this to [39]; its cost is excluded from all
/// measurements, only the candidate set matters).
///
/// Method: uniform grid partitioning over the combined data space, each box
/// replicated into every tile it overlaps; within a tile both sides are
/// sorted by xmin and swept with the classic forward scan; duplicates from
/// replication are suppressed with the reference-point rule (a pair is
/// reported only by the tile containing the top-right-most min-corner of the
/// MBR intersection).
///
/// Layout: tile buckets are a CSR-style index — one flat entry array per
/// side plus a per-tile offset table built with a count/prefix-sum/scatter
/// pass — so the distribute phase does exactly two allocations per side no
/// matter how many tiles the grid has. Both the distribute and the per-tile
/// sweep phases run on Options::num_threads workers; idle sweep workers
/// steal the next block of tiles, so a few dense tiles cannot serialize the
/// sweep tail.
///
/// Output order: the pairs are returned sorted by (r, s) at every thread
/// count, so everything downstream of the filter (the join's answers, the
/// CLI's printed links) is byte-identical however many workers ran.
class MbrJoin {
 public:
  struct Options {
    // Member-init-list constructor (not default member initializers): the
    // defaults are needed by Join's default argument before this class is
    // complete.
    Options() : tiles_per_side(0), num_threads(1), exec(nullptr) {}
    /// Tiles per side; 0 picks ~sqrt((|r|+|s|)/8) automatically.
    uint32_t tiles_per_side;
    /// Worker threads for the distribute and sweep phases
    /// (0 = hardware concurrency, 1 = fully serial).
    unsigned num_threads;
    /// Optional deadline/cancel/budget carrier. Workers check in per swept
    /// tile (and per distribute slice); a trip makes Join return early with
    /// only the pairs discovered so far. The filter's candidate set is only
    /// complete when !exec->StopRequested() afterwards — a cut-short filter
    /// result must be treated as "query stopped during the filter stage",
    /// not as a smaller join. The tile-entry tables are charged against the
    /// exec memory budget before allocation.
    ExecContext* exec;
  };

  /// Returns all pairs (i, j) with r[i] intersecting s[j], sorted by (i, j).
  static std::vector<CandidatePair> Join(const std::vector<Box>& r,
                                         const std::vector<Box>& s,
                                         Options options = Options());

  /// Reference quadratic join for verification in tests (also (i, j)
  /// order).
  static std::vector<CandidatePair> JoinBruteForce(const std::vector<Box>& r,
                                                   const std::vector<Box>& s);
};

}  // namespace stj
