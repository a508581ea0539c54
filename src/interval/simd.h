#pragma once

#include <cstdint>

#include "src/interval/interval_list.h"
#include "src/util/cpuid.h"

namespace stj::simd {

/// One table of vectorized merge-join kernels per SimdLevel. The public
/// relations in interval_algebra.h run their O(1) range pre-checks and then
/// call through the active table, so the kernels may assume the trivial
/// cases are gone:
///
///   overlap/common_cells: both views non-empty, total ranges intersect.
///   inside:               both views non-empty, y's range covers x's range.
///   match:                equal non-zero sizes, equal FrontCell/BackEnd.
///
/// Every kernel is exact — same results as the scalar table on any input
/// meeting its precondition (the differential suite in
/// tests/interval/simd_differential_test.cpp pins this per build).
struct Kernels {
  bool (*overlap)(IntervalView x, IntervalView y);
  bool (*match)(IntervalView x, IntervalView y);
  bool (*inside)(IntervalView x, IntervalView y);
  uint64_t (*common_cells)(IntervalView x, IntervalView y);
  SimdLevel level;
};

/// The table dispatch selected: the best level DetectSimdLevel() reports,
/// overridable via the STJ_SIMD environment variable ("scalar" / "avx2" /
/// "neon"; ignored when the named level is unavailable) and via ForceLevel.
/// Resolution is lock-free and idempotent; callers may cache the reference.
const Kernels& Active();

/// Table for one specific level, or nullptr when that level was not compiled
/// in or the CPU lacks it. kScalar is always available.
const Kernels* KernelsFor(SimdLevel level);

/// Pins the active table to \p level for this process — test and bench hook
/// for scalar-vs-SIMD differential runs. Returns false (and leaves dispatch
/// unchanged) when the level is unavailable. Not thread-safe against
/// concurrent relation calls; flip it only between single-threaded phases.
bool ForceLevel(SimdLevel level);

/// Level of the active table (convenience for logs and bench records).
SimdLevel ActiveLevel();

}  // namespace stj::simd
