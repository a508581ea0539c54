#include "src/interval/interval_algebra.h"

#include "src/interval/simd.h"

// The relations keep their scalar merge-join semantics but split each into
// an O(1) range pre-check on the views' total cell ranges followed by a call
// through the runtime-dispatched kernel table (simd.h): AVX2 on x86, NEON on
// arm64, portable scalar otherwise. Call sites are untouched — dispatch is
// entirely behind this translation unit.

namespace stj {

namespace {

/// True when the views' covered cell ranges cannot share a cell, so any
/// merge-join that needs a common cell can answer immediately.
bool RangesDisjoint(IntervalView x, IntervalView y) {
  return x.Empty() || y.Empty() || x.BackEnd() <= y.FrontCell() ||
         y.BackEnd() <= x.FrontCell();
}

/// True when y's total range covers x's total range end to end; both views
/// must be non-empty. A false result proves ListInside(x, y) is false, and
/// subsumes the disjoint-ranges reject.
bool RangeCovers(IntervalView y, IntervalView x) {
  return y.FrontCell() <= x.FrontCell() && x.BackEnd() <= y.BackEnd();
}

}  // namespace

bool ListsOverlap(IntervalView x, IntervalView y) {
  if (RangesDisjoint(x, y)) return false;
  return simd::Active().overlap(x, y);
}

bool ListsMatch(IntervalView x, IntervalView y) {
  if (x.Size() != y.Size()) return false;
  if (x.Empty()) return true;
  // Endpoint pre-check: canonical lists that differ usually differ at the
  // extremes, so compare those before the element-wise scan.
  if (x.FrontCell() != y.FrontCell() || x.BackEnd() != y.BackEnd()) {
    return false;
  }
  return simd::Active().match(x, y);
}

bool ListInside(IntervalView x, IntervalView y) {
  if (x.Empty()) return true;
  if (y.Empty()) return false;
  if (!RangeCovers(y, x)) return false;
  return simd::Active().inside(x, y);
}

bool ListContains(IntervalView x, IntervalView y) { return ListInside(y, x); }

uint64_t ListsCommonCells(IntervalView x, IntervalView y) {
  if (RangesDisjoint(x, y)) return 0;
  return simd::Active().common_cells(x, y);
}

}  // namespace stj
