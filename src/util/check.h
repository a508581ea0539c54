#pragma once

#include <cstddef>

/// Contract and invariant macros (DESIGN.md §11).
///
/// Three tiers, by who pays and when:
///
///  - STJ_CHECK(cond): always on, in every build type. For contracts whose
///    violation means memory is already (or is about to be) corrupted and no
///    Status can credibly be propagated — e.g. index arithmetic inside a
///    container. Cost must be O(1) on a path where a branch is free.
///  - STJ_DCHECK(cond) / STJ_DCHECK_SORTED(...): compiled out unless
///    STJ_ENABLE_INVARIANTS is defined (the `invariants` CMake preset).
///    For contracts that are too hot or too deep for release builds.
///  - Status::Internal(...): for invariant violations detected on fallible
///    paths (I/O, parsing) where the caller can isolate the damage — see the
///    corruption isolation of the shard layer (src/raster/shard_io.h).
///
/// Deep structure validators (IntervalList::ValidateInvariants and friends)
/// are always *compiled* — tests call them in any build — but their
/// automatic invocation from hot paths is wrapped in STJ_IF_INVARIANTS so
/// release binaries never pay for them.

namespace stj::internal {

/// Prints "file:line: check failed: expr (message)" to stderr and aborts.
/// Out of line so the macro expansion stays one cheap test-and-branch.
[[noreturn]] void CheckFailed(const char* file, int line, const char* expr,
                              const char* message = nullptr);

}  // namespace stj::internal

/// Always-on contract check: aborts (never throws) on violation.
#define STJ_CHECK(cond)                                            \
  do {                                                             \
    if (!(cond)) {                                                 \
      ::stj::internal::CheckFailed(__FILE__, __LINE__, #cond);     \
    }                                                              \
  } while (false)

/// Always-on contract check with an explanatory message.
#define STJ_CHECK_MSG(cond, message)                                       \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::stj::internal::CheckFailed(__FILE__, __LINE__, #cond, (message));  \
    }                                                                      \
  } while (false)

#if defined(STJ_ENABLE_INVARIANTS)

#define STJ_INVARIANTS_ENABLED 1

/// Debug contract check: active only in invariants builds.
#define STJ_DCHECK(cond) STJ_CHECK(cond)
#define STJ_DCHECK_MSG(cond, message) STJ_CHECK_MSG(cond, (message))
#define STJ_DCHECK_EQ(a, b) STJ_CHECK((a) == (b))
#define STJ_DCHECK_NE(a, b) STJ_CHECK((a) != (b))
#define STJ_DCHECK_LE(a, b) STJ_CHECK((a) <= (b))
#define STJ_DCHECK_LT(a, b) STJ_CHECK((a) < (b))
#define STJ_DCHECK_GE(a, b) STJ_CHECK((a) >= (b))

/// Runs \p statement only in invariants builds — the hook used to call the
/// deep ValidateInvariants() validators from hot construction paths.
#define STJ_IF_INVARIANTS(statement) \
  do {                               \
    statement;                       \
  } while (false)

/// Checks that [begin, end) is sorted under \p lt (strictly: lt(next, prev)
/// never holds). Linear — invariants builds only.
#define STJ_DCHECK_SORTED(begin_it, end_it, lt)                            \
  do {                                                                     \
    auto stj_check_it = (begin_it);                                        \
    const auto stj_check_end = (end_it);                                   \
    if (stj_check_it != stj_check_end) {                                   \
      auto stj_check_prev = stj_check_it++;                                \
      for (; stj_check_it != stj_check_end;                                \
           stj_check_prev = stj_check_it++) {                              \
        STJ_CHECK_MSG(!(lt)(*stj_check_it, *stj_check_prev),               \
                      "range is not sorted");                              \
      }                                                                    \
    }                                                                      \
  } while (false)

#else  // !STJ_ENABLE_INVARIANTS

#define STJ_INVARIANTS_ENABLED 0

// The sizeof trick keeps the condition's names odr-unused but referenced, so
// compiled-out checks never cause unused-variable warnings and never
// evaluate their (side-effect-free by contract) arguments.
#define STJ_DCHECK(cond) ((void)sizeof(!(cond)))
#define STJ_DCHECK_MSG(cond, message) ((void)sizeof(!(cond)))
#define STJ_DCHECK_EQ(a, b) ((void)sizeof((a) == (b)))
#define STJ_DCHECK_NE(a, b) ((void)sizeof((a) != (b)))
#define STJ_DCHECK_LE(a, b) ((void)sizeof((a) <= (b)))
#define STJ_DCHECK_LT(a, b) ((void)sizeof((a) < (b)))
#define STJ_DCHECK_GE(a, b) ((void)sizeof((a) >= (b)))

#define STJ_IF_INVARIANTS(statement) \
  do {                               \
  } while (false)

#define STJ_DCHECK_SORTED(begin_it, end_it, lt) \
  ((void)sizeof(((begin_it) != (end_it)) &&     \
                (lt)(*(begin_it), *(begin_it))))

#endif  // STJ_ENABLE_INVARIANTS
