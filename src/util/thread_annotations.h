#pragma once

/// Clang thread-safety-analysis attributes (DESIGN.md §11).
///
/// Under clang these expand to the static-analysis attributes checked by
/// -Wthread-safety (which CMake promotes to an error for clang builds, see
/// the stj_warnings target); under other compilers they vanish. The macros
/// carry the STJ_ prefix so the no-op fallback cannot collide with other
/// libraries' definitions.
///
/// Annotation policy (DESIGN.md §16):
///  - Every mutex-protected member is STJ_GUARDED_BY(its mutex); accessor
///    methods that expect the caller to hold the lock are STJ_REQUIRES.
///  - std::atomic declarations carry no capability (their safety is in the
///    type), but every one must be documented through STJ_ATOMIC_DOC on the
///    declaration line or the line directly above it: one sentence naming
///    the sharing protocol (who writes, who reads, which memory order and
///    why it suffices). tools/stj_analyzer.py enforces presence; the macro
///    itself rejects an empty rationale at compile time.
///  - Mutexes that can nest declare their order with STJ_ACQUIRED_AFTER /
///    STJ_ACQUIRED_BEFORE; tools/stj_analyzer.py derives the observed
///    lock-order graph from nested guard scopes and fails on any cycle
///    between observed and declared edges.
///  - Classes that are intentionally single-threaded (Pipeline, its
///    PreparedCaches and DecodedAprilCaches, and the WorkerLru both run on:
///    one instance per worker) declare STJ_THREAD_CONFINED("...") in their
///    class body naming the confinement that replaces the lock annotations
///    they do not need. A built EdgeSlabIndex needs neither: it has no
///    mutable state, so any number of threads may query one.

#if defined(__clang__) && defined(__has_attribute)
#define STJ_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define STJ_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Marks a type as a lockable capability (mutexes, custom locks).
#define STJ_CAPABILITY(x) STJ_THREAD_ANNOTATION(capability(x))

/// Marks a RAII lock holder (acquires in ctor, releases in dtor).
#define STJ_SCOPED_CAPABILITY STJ_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding \p x.
#define STJ_GUARDED_BY(x) STJ_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose pointee is protected by \p x.
#define STJ_PT_GUARDED_BY(x) STJ_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the listed capabilities held on entry (and exit).
#define STJ_REQUIRES(...) \
  STJ_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability; caller must not already hold it.
#define STJ_ACQUIRE(...) STJ_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability; caller must hold it.
#define STJ_RELEASE(...) STJ_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function must be called without the listed capabilities held.
#define STJ_EXCLUDES(...) STJ_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Return value is a reference to data guarded by the capability.
#define STJ_RETURN_CAPABILITY(x) STJ_THREAD_ANNOTATION(lock_returned(x))

/// Declares lock order: this mutex is acquired after / before the listed
/// ones. Clang checks the declared order; tools/stj_analyzer.py additionally
/// cross-checks it against the order observed in nested guard scopes.
#define STJ_ACQUIRED_AFTER(...) STJ_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define STJ_ACQUIRED_BEFORE(...) \
  STJ_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

/// Runtime assertion that the calling thread holds the capability (for code
/// reached both with and without the lock where the analysis needs help).
#define STJ_ASSERT_CAPABILITY(x) STJ_THREAD_ANNOTATION(assert_capability(x))

/// Escape hatch: disables analysis for one function. Use only with a comment
/// explaining why the analysis cannot see the safety argument.
#define STJ_NO_THREAD_SAFETY_ANALYSIS \
  STJ_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Documents one lock-free (atomic) field or variable: who writes it, who
/// reads it, and why the chosen memory order suffices. Placed on the
/// declaration line or the line directly above it; tools/stj_analyzer.py
/// fails any `std::atomic` declaration in src/ that lacks one. The
/// static_assert makes the convention *checked* rather than decorative —
/// an empty rationale ("") does not compile, so every annotation carries
/// an argument a reviewer can dispute.
#define STJ_ATOMIC_DOC(reason)                               \
  static_assert(sizeof(reason) > 1,                          \
                "STJ_ATOMIC_DOC needs a non-empty rationale " \
                "(writers, readers, memory order)")

/// Documents a deliberately unsynchronized class whose safety argument is
/// thread confinement (one instance per worker, never shared). Placed in
/// the class body; the checked-rationale discipline mirrors STJ_ATOMIC_DOC
/// so "it just has no locks" cannot pass review silently.
#define STJ_THREAD_CONFINED(reason)                                 \
  static_assert(sizeof(reason) > 1,                                 \
                "STJ_THREAD_CONFINED needs a non-empty confinement " \
                "rationale (which thread owns an instance, and why)")
