#include "src/interval/interval_algebra.h"

#include <algorithm>

// Each relation is an O(1) range pre-check on the views' total cell ranges
// followed by a galloping merge-join. The merge loops may therefore assume
// the trivial cases are gone:
//
//   overlap/common cells: both views non-empty, total ranges intersect.
//   inside:               both views non-empty, y's range covers x's range.
//   match:                equal non-zero sizes, equal FrontCell/BackEnd.

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

/// First index k >= i with v[k].end > t, by galloping: one probe for the
/// common advance-by-one case, then doubling steps and a binary search over
/// the overshoot. Endpoints are strictly increasing in canonical lists, so
/// "first end above t" is a lower-bound search on the end column.
size_t GallopEndAbove(IntervalView v, size_t i, CellId t) {
  const size_t n = v.Size();
  if (i >= n || v[i].end > t) return i;
  // v[i].end <= t; find the overshoot window (lo, hi] with v[lo].end <= t.
  size_t lo = i;
  size_t step = 1;
  size_t hi = i + 1;
  while (hi < n && v[hi].end <= t) {
    lo = hi;
    step <<= 1;
    hi = i + step;
  }
  hi = std::min(hi, n);
  // Binary search in (lo, hi]: first index whose end exceeds t.
  while (lo + 1 < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (v[mid].end <= t) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

/// First index k >= i with v[k].end >= t. Canonical intervals are non-empty,
/// so t >= 1 whenever t is an interval end and the t-1 rewrite is safe.
size_t GallopEndAtLeast(IntervalView v, size_t i, CellId t) {
  return GallopEndAbove(v, i, t - 1);
}

bool MergeOverlap(IntervalView x, IntervalView y) {
  size_t i = 0;
  size_t j = 0;
  const size_t nx = x.Size();
  const size_t ny = y.Size();
  while (i < nx && j < ny) {
    const CellInterval& a = x[i];
    const CellInterval& b = y[j];
    if (a.begin < b.end && b.begin < a.end) return true;
    // No overlap, so the side with the smaller end lies entirely below the
    // other's begin; gallop it past every interval ending at or before it.
    if (a.end <= b.end) {
      i = GallopEndAbove(x, i, b.begin);
    } else {
      j = GallopEndAbove(y, j, a.begin);
    }
  }
  return false;
}

bool MergeInside(IntervalView x, IntervalView y) {
  const size_t ny = y.Size();
  size_t j = 0;
  for (size_t i = 0; i < x.Size(); ++i) {
    const CellInterval& a = x[i];
    // Advance to the first y interval that could contain a: y ends strictly
    // below a.end cannot, and skipped intervals cannot contain any later a
    // either (x begins are increasing past each skipped end).
    j = GallopEndAtLeast(y, j, a.end);
    if (j == ny || y[j].begin > a.begin) return false;
    // y[j].begin <= a.begin and a.end <= y[j].end: contained.
  }
  return true;
}

uint64_t MergeCommonCells(IntervalView x, IntervalView y) {
  uint64_t total = 0;
  size_t i = 0;
  size_t j = 0;
  const size_t nx = x.Size();
  const size_t ny = y.Size();
  while (i < nx && j < ny) {
    const CellInterval& a = x[i];
    const CellInterval& b = y[j];
    const CellId lo = std::max(a.begin, b.begin);
    const CellId hi = std::min(a.end, b.end);
    if (lo < hi) total += hi - lo;
    if (a.end <= b.end) {
      // When a ends below b entirely, gallop across the disjoint stretch.
      i = (a.end <= b.begin) ? GallopEndAbove(x, i, b.begin) : i + 1;
    } else {
      j = (b.end <= a.begin) ? GallopEndAbove(y, j, a.begin) : j + 1;
    }
  }
  return total;
}

}  // namespace

bool ListsOverlap(IntervalView x, IntervalView y) {
  if (RangesDisjoint(x, y)) return false;
  return MergeOverlap(x, y);
}

bool ListsMatch(IntervalView x, IntervalView y) {
  if (x.Size() != y.Size()) return false;
  if (x.Empty()) return true;
  // Endpoint pre-check: canonical lists that differ usually differ at the
  // extremes, so compare those before the element-wise scan.
  if (x.FrontCell() != y.FrontCell() || x.BackEnd() != y.BackEnd()) {
    return false;
  }
  return std::equal(x.begin(), x.end(), y.begin());
}

bool ListInside(IntervalView x, IntervalView y) {
  if (x.Empty()) return true;
  if (y.Empty()) return false;
  if (!RangeCovers(y, x)) return false;
  return MergeInside(x, y);
}

bool ListContains(IntervalView x, IntervalView y) { return ListInside(y, x); }

uint64_t ListsCommonCells(IntervalView x, IntervalView y) {
  if (RangesDisjoint(x, y)) return 0;
  return MergeCommonCells(x, y);
}

}  // namespace stj
