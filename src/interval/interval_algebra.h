#pragma once

#include "src/interval/interval_list.h"

namespace stj {

/// The four relations between interval lists used by the paper's intermediate
/// filters (Sec. 3.2). All are linear-time merge-joins over the canonical
/// sorted-disjoint representation; none allocates.
///
/// Every relation takes IntervalView, so heap-backed IntervalLists (which
/// convert implicitly) and arena-backed AprilStore records run through the
/// same code. Each merge-join is preceded by an O(1) quick reject on the
/// views' total cell ranges (FrontCell/BackEnd): after the MBR filter, most
/// surviving pairs on sparse scenarios have disjoint Hilbert ranges, and the
/// pre-check answers those without touching the interval data.

/// 'X,Y overlap': some x in X and y in Y share at least one cell id.
bool ListsOverlap(IntervalView x, IntervalView y);

/// 'X,Y match': the two lists are identical interval-by-interval (they cover
/// the same cells; canonical form makes cover-equality representation-
/// equality).
bool ListsMatch(IntervalView x, IntervalView y);

/// 'X inside Y': every interval of X is contained in one interval of Y,
/// i.e. Y covers every cell of X. An empty X is vacuously inside any Y.
bool ListInside(IntervalView x, IntervalView y);

/// 'X contains Y': inverse of ListInside.
bool ListContains(IntervalView x, IntervalView y);

/// Number of cells covered by both lists (used by diagnostics and tests; the
/// filters themselves only need the boolean relations above).
uint64_t ListsCommonCells(IntervalView x, IntervalView y);

}  // namespace stj
