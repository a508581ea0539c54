#include "src/raster/april.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/interval/interval_algebra.h"
#include "src/util/check.h"

namespace stj {

namespace {

using RowRuns = std::vector<std::pair<uint32_t, uint32_t>>;

/// Coalesces one row's partial columns (width-1 ranges) and full runs into
/// maximal column ranges. Both are sorted and no column is in both, so a
/// single two-pointer pass suffices.
void MergeRowRanges(const std::vector<uint32_t>& partial, const RowRuns& full,
                    RowRuns* out) {
  out->clear();
  auto add = [out](uint32_t lo, uint32_t hi) {
    if (!out->empty() &&
        static_cast<uint64_t>(out->back().second) + 1 >= lo) {
      out->back().second = std::max(out->back().second, hi);
    } else {
      out->emplace_back(lo, hi);
    }
  };
  size_t pi = 0;
  size_t fi = 0;
  while (pi < partial.size() || fi < full.size()) {
    if (fi == full.size() ||
        (pi < partial.size() && partial[pi] < full[fi].first)) {
      add(partial[pi], partial[pi]);
      ++pi;
    } else {
      add(full[fi].first, full[fi].second);
      ++fi;
    }
  }
}

/// The first run of \p runs that ends at or after column \p x.
RowRuns::const_iterator FirstRunReaching(const RowRuns& runs, uint32_t x) {
  return std::partition_point(
      runs.begin(), runs.end(),
      [x](const std::pair<uint32_t, uint32_t>& run) { return run.second < x; });
}

// Curve frames. The curve index (hilbert.cpp) reads a cell's coordinate bits
// from the top down and, after each level, maps the remaining low bits into
// the canonical frame of the subquadrant it entered (Rotate). So every
// quadrant has a frame: the map from its grid-local offsets to the canonical
// curve's coordinates. There are four, built from two commuting involutions
// — bit 0 swaps x and y, bit 1 complements both (n-1-x, n-1-y) — so they
// form the Klein group and compose by XOR:
//   0 identity, 1 transpose, 2 half turn, 3 anti-transpose.
// Curve step h = 0..3 enters the canonical child (ru, rv) = (0,0), (0,1),
// (1,1), (1,0), inverting the curve index's h = (3*rx) ^ ry. Rotate then
// swaps at (0,0) (frame 1), complements and swaps at (1,0) (frame 3), and
// does nothing when rv = 1 (frame 0). For a quadrant with frame f:
//  - its grid child is f applied to the bit pair (ru, rv): every frame is
//    its own inverse, so the same map goes both ways;
//  - the child's frame is f ^ kEnterFrame[h];
//  - the child's first curve position is dbase + h * 4^(m-1).
constexpr uint32_t kChildU[4] = {0, 0, 1, 1};
constexpr uint32_t kChildV[4] = {0, 1, 1, 0};
constexpr uint32_t kEnterFrame[4] = {1, 0, 0, 3};

/// Grid-local offset bits of a child quadrant.
struct ChildOffset {
  uint32_t u;
  uint32_t v;
};

/// The grid child of curve step \p h in a quadrant with frame \p frame:
/// the frame applied to (kChildU[h], kChildV[h]).
constexpr ChildOffset GridChild(uint32_t frame, uint32_t h) {
  const uint32_t flip = (frame >> 1) & 1u;
  const uint32_t u = kChildU[h] ^ flip;
  const uint32_t v = kChildV[h] ^ flip;
  return (frame & 1u) != 0 ? ChildOffset{v, u} : ChildOffset{u, v};
}

// Leaf kernel tables. The recursion stops at 8×8 quadrants (order 3), whose
// four 4×4 sub-blocks are mapped to curve order by table lookup:
// kLeafMasks.bits[f][r][nibble] holds, as bits 0-15, the curve positions
// within a 4×4 block of frame f of the cells of its grid-local row r whose
// columns are set in nibble. The positions come from two steps of the
// recursion's own GridChild/kEnterFrame descent, so the table and the
// recursion cannot disagree about the curve.
constexpr uint32_t kLeafOrder = 3;

struct LeafMasks {
  uint16_t bits[4][4][16];
};

constexpr LeafMasks MakeLeafMasks() {
  LeafMasks table{};
  for (uint32_t f = 0; f < 4; ++f) {
    uint32_t position[4][4] = {};  // [row][column] within the 4×4 block.
    for (uint32_t h = 0; h < 4; ++h) {
      const ChildOffset outer = GridChild(f, h);
      for (uint32_t h1 = 0; h1 < 4; ++h1) {
        const ChildOffset inner = GridChild(f ^ kEnterFrame[h], h1);
        position[2 * outer.v + inner.v][2 * outer.u + inner.u] = 4 * h + h1;
      }
    }
    for (uint32_t r = 0; r < 4; ++r) {
      for (uint32_t nibble = 0; nibble < 16; ++nibble) {
        uint32_t mask = 0;
        for (uint32_t u = 0; u < 4; ++u) {
          if ((nibble >> u) & 1u) mask |= 1u << position[r][u];
        }
        table.bits[f][r][nibble] = static_cast<uint16_t>(mask);
      }
    }
  }
  return table;
}

constexpr LeafMasks kLeafMasks = MakeLeafMasks();

/// Recursive quadrant decomposition of a row-range region into sorted
/// canonical Hilbert intervals.
///
/// Any grid-aligned quadrant of size 2^m is a contiguous segment of the
/// Hilbert curve, aligned to a multiple of 4^m in curve space. The recursion
/// classifies each quadrant against the region (empty / fully covered /
/// mixed): empty quadrants are skipped, full ones emit their whole curve
/// segment as ONE interval, and mixed ones split into their four
/// subquadrants, visited in curve order — so the emitted stream is globally
/// sorted and exact-adjacency coalescing yields the canonical form directly,
/// with no merge pass. Cost is O(visited quadrants · rows-per-check), i.e.
/// output-sensitive: interiors collapse to their quadtree blocks instead of
/// fragmenting into Θ(cells) per-row curve intervals.
///
/// Each quadrant carries its curve frame (above), so visiting the children in
/// curve order needs no curve-index computation and no sort. The recursion
/// ends at 8×8 quadrants (Leaf), which read their rows as column bit masks
/// and map them to curve order by table, so quadrants of 4×4 cells and
/// less are never visited. Grids of order 1-2 are smaller than a leaf and
/// recurse down to single cells.
class BlockDecomposer {
 public:
  BlockDecomposer(uint32_t order, const RowRuns* rows, size_t num_rows,
                  uint32_t y0, std::vector<CellInterval>* out)
      : order_(order), rows_(rows), num_rows_(num_rows), y0_(y0), out_(out) {}

  void Run() {
    // Bounding box over the row ranges; empty regions never recurse.
    bool any = false;
    min_x_ = 0;
    max_x_ = 0;
    y_end_ = y0_;
    for (size_t row = 0; row < num_rows_; ++row) {
      if (rows_[row].empty()) continue;
      const uint32_t lo = rows_[row].front().first;
      const uint32_t hi = rows_[row].back().second;
      if (!any) {
        min_x_ = lo;
        max_x_ = hi;
      } else {
        min_x_ = std::min(min_x_, lo);
        max_x_ = std::max(max_x_, hi);
      }
      y_end_ = y0_ + static_cast<uint32_t>(row);
      any = true;
    }
    if (any) Visit(order_, 0, 0, 0, /*frame=*/0);
  }

 private:
  enum class Cover { kEmpty, kFull, kMixed };

  /// Classifies the cell rectangle [x_lo, x_hi] × [y_lo, y_hi] against the
  /// region. Row ranges are sorted and non-adjacent, so a row either misses
  /// the column range (empty), has one range spanning all of it (full), or
  /// contains both covered and uncovered cells (mixed, early exit).
  Cover Classify(uint32_t x_lo, uint32_t x_hi, uint32_t y_lo,
                 uint32_t y_hi) const {
    if (x_hi < min_x_ || x_lo > max_x_ || y_hi < y0_ || y_lo > y_end_) {
      return Cover::kEmpty;
    }
    // Cells outside the bounding box are uncovered: a quadrant that sticks
    // out of it can at best be mixed.
    bool seen_empty =
        x_lo < min_x_ || x_hi > max_x_ || y_lo < y0_ || y_hi > y_end_;
    bool seen_full = false;
    const uint32_t row_lo = std::max(y_lo, y0_);
    const uint32_t row_hi = std::min(y_hi, y_end_);
    for (uint32_t y = row_lo; y <= row_hi; ++y) {
      const RowRuns& runs = rows_[y - y0_];
      const auto it = FirstRunReaching(runs, x_lo);
      if (it == runs.end() || it->first > x_hi) {
        seen_empty = true;
      } else if (it->first <= x_lo && it->second >= x_hi) {
        seen_full = true;
      } else {
        return Cover::kMixed;
      }
      if (seen_full && seen_empty) return Cover::kMixed;
    }
    return seen_full ? Cover::kFull : Cover::kEmpty;
  }

  void Emit(uint64_t begin, uint64_t end) {
    if (!out_->empty() && out_->back().end == begin) {
      out_->back().end = end;
    } else {
      out_->push_back({begin, end});
    }
  }

  /// The 8×8 quadrant at (x, y), with first curve position \p dbase and
  /// frame \p frame: its covered cells become one 64-bit mask in curve
  /// order (bit i is position dbase + i), whose runs of set bits are
  /// emitted in order.
  void Leaf(uint32_t x, uint32_t y, uint64_t dbase, uint32_t frame) {
    constexpr uint32_t kSpan = (1u << kLeafOrder) - 1;
    if (x + kSpan < min_x_ || x > max_x_ || y + kSpan < y0_ || y > y_end_) {
      return;
    }
    // Bit i of row_bits[j]: cell (x + i, y + j) is covered.
    uint32_t row_bits[8] = {};
    const uint32_t row_lo = std::max(y, y0_);
    const uint32_t row_hi = std::min(y + kSpan, y_end_);
    for (uint32_t row = row_lo; row <= row_hi; ++row) {
      const RowRuns& runs = rows_[row - y0_];
      uint32_t bits = 0;
      for (auto it = FirstRunReaching(runs, x);
           it != runs.end() && it->first <= x + kSpan; ++it) {
        const uint32_t lo = std::max(it->first, x) - x;
        const uint32_t hi = std::min(it->second, x + kSpan) - x;
        bits |= (2u << hi) - (1u << lo);
      }
      row_bits[row - y] = bits;
    }
    // The four 4×4 sub-blocks in curve order, each through the table of its
    // frame, one row nibble at a time.
    uint64_t mask = 0;
    for (uint32_t h = 0; h < 4; ++h) {
      const ChildOffset child = GridChild(frame, h);
      const auto& table = kLeafMasks.bits[frame ^ kEnterFrame[h]];
      const uint32_t* rows = row_bits + 4 * child.v;
      const uint32_t shift = 4 * child.u;
      uint32_t block = 0;
      for (uint32_t r = 0; r < 4; ++r) {
        block |= table[r][(rows[r] >> shift) & 0xFu];
      }
      mask |= uint64_t{block} << (16 * h);
    }
    while (mask != 0) {
      // Adding the lowest set bit clears the lowest run and sets the bit
      // above it; it wraps to 0 when the run reaches bit 63.
      const uint64_t carry = mask + (mask & (~mask + 1));
      const auto begin = static_cast<uint64_t>(std::countr_zero(mask));
      const auto end = static_cast<uint64_t>(std::countr_zero(carry));
      Emit(dbase + begin, dbase + end);
      mask &= carry;
    }
  }

  /// \p dbase is the first curve position of the quadrant of size 2^m whose
  /// bottom-left cell is (x, y), and \p frame its curve frame (see above).
  void Visit(uint32_t m, uint32_t x, uint32_t y, uint64_t dbase,
             uint32_t frame) {
    if (m == kLeafOrder) {
      Leaf(x, y, dbase, frame);
      return;
    }
    const uint32_t span = (1u << m) - 1;
    switch (Classify(x, x + span, y, y + span)) {
      case Cover::kEmpty:
        return;
      case Cover::kFull:
        Emit(dbase, dbase + (uint64_t{1} << (2 * m)));
        return;
      case Cover::kMixed:
        break;  // m >= 1: a single cell is never mixed.
    }
    const uint32_t half = 1u << (m - 1);
    const uint64_t quarter = uint64_t{1} << (2 * (m - 1));
    for (uint32_t h = 0; h < 4; ++h) {
      const ChildOffset child = GridChild(frame, h);
      Visit(m - 1, x + child.u * half, y + child.v * half, dbase + h * quarter,
            frame ^ kEnterFrame[h]);
    }
  }

  const uint32_t order_;
  const RowRuns* rows_;
  const size_t num_rows_;
  const uint32_t y0_;
  std::vector<CellInterval>* out_;
  uint32_t min_x_ = 0;
  uint32_t max_x_ = 0;
  uint32_t y_end_ = 0;
};

}  // namespace

void AprilApproximation::ValidateInvariants() const {
  conservative.ValidateInvariants();
  progressive.ValidateInvariants();
  STJ_CHECK_MSG(ListInside(progressive, conservative),
                "P must be a subset of C");
}

AprilApproximation AprilBuilder::Build(const Polygon& poly) const {
  rasterizer_.Rasterize(poly, &coverage_);
  AprilApproximation april = FromCoverageQuadrants(coverage_);
  STJ_IF_INVARIANTS(april.ValidateInvariants());
  return april;
}

AprilApproximation AprilBuilder::FromCoverage(
    const RasterCoverage& coverage) const {
  std::vector<CellId> full_cells;
  std::vector<CellId> all_cells;
  for (size_t row = 0; row < coverage.partial_by_row.size(); ++row) {
    const uint32_t cy = coverage.y0 + static_cast<uint32_t>(row);
    for (const uint32_t cx : coverage.partial_by_row[row]) {
      all_cells.push_back(grid_->CellIdOf(cx, cy));
    }
    for (const auto& [first, last] : coverage.full_runs_by_row[row]) {
      for (uint32_t cx = first; cx <= last; ++cx) {
        const CellId id = grid_->CellIdOf(cx, cy);
        full_cells.push_back(id);
        all_cells.push_back(id);
      }
    }
  }
  AprilApproximation april;
  april.progressive = IntervalList::FromCells(std::move(full_cells));
  april.conservative = IntervalList::FromCells(std::move(all_cells));
  return april;
}

AprilApproximation AprilBuilder::FromCoverageQuadrants(
    const RasterCoverage& coverage) const {
  AprilApproximation april;
  const size_t num_rows = coverage.full_runs_by_row.size();
  april.progressive = DecomposeQuadrants(coverage.full_runs_by_row.data(),
                                         num_rows, coverage.y0);

  // Merged C rows (partial ∪ full) feed the same decomposition. The scratch
  // only ever grows, keeping row buffers warm across Build() calls.
  if (c_rows_.size() < num_rows) c_rows_.resize(num_rows);
  for (size_t row = 0; row < num_rows; ++row) {
    MergeRowRanges(coverage.partial_by_row[row], coverage.full_runs_by_row[row],
                   &c_rows_[row]);
  }
  april.conservative =
      DecomposeQuadrants(c_rows_.data(), num_rows, coverage.y0);
  return april;
}

IntervalList AprilBuilder::DecomposeQuadrants(const RowRuns* rows,
                                              size_t num_rows,
                                              uint32_t y0) const {
  stream_.clear();
  BlockDecomposer(grid_->Order(), rows, num_rows, y0, &stream_).Run();
  return IntervalList::FromSorted(stream_);
}

}  // namespace stj
