#pragma once

// Deterministic exhaustive-interleaving model checker (DESIGN.md §16).
//
// The checker enumerates *every* interleaving of a small set of thread
// programs, where a program is a fixed sequence of operations against a
// fresh "world" (the structure under test). Exploration is replay-based
// depth-first search over a stack of scheduling choices: each path rebuilds
// the world from scratch, replays the recorded choice prefix, then extends
// it; backtracking increments the deepest unexhausted choice. No real
// threads are involved — every operation runs to completion on the
// checker's own thread.
//
// Why op-granularity interleaving is sound here: the structures this
// harness targets (PinnedByteLruCache) serialize every public operation
// under one mutex. Any real execution is therefore equivalent to *some*
// total order of complete operations — exactly the orders this checker
// enumerates. Blocking operations are modeled with an `enabled` predicate
// mirroring the condvar predicate (e.g. a pop is enabled iff the structure
// is closed or non-empty); scheduling a blocking op only when enabled
// reproduces "the wait returned" without ever sleeping. A state where
// unfinished programs exist but nothing is enabled is a *deadlock* —
// precisely a real execution whose waiters can never be woken — and is
// counted so tests can assert deadlock-freedom (tests/model/
// interleave_test.cpp proves the detection with a negative control).
//
// Keep scenarios small (2-3 threads, 2-4 ops each): the schedule count is
// multinomial in the op counts, and the point is exhaustiveness, not scale.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace stj::model {

/// One atomic step of a thread program. `enabled` models a blocking
/// operation's wake condition (null = always enabled); `run` performs the
/// complete operation and must not block.
struct Op {
  std::string name;
  std::function<bool()> enabled;  ///< Null means always enabled.
  std::function<void()> run;
};

/// A thread: an ordered sequence of ops, executed at most one step per
/// scheduling choice.
struct ThreadProgram {
  std::string name;
  std::vector<Op> ops;
};

/// One fresh instance of a scenario: the world (kept alive by the erased
/// pointer), the programs bound to it, and its invariant callbacks.
struct Instance {
  std::shared_ptr<void> world;          ///< Owns the structure under test.
  std::vector<ThreadProgram> threads;
  std::function<void()> check_step;     ///< After every op (may be null).
  std::function<void()> check_final;    ///< After each complete schedule
                                        ///< (may be null; skipped on
                                        ///< deadlocked paths).
};

struct ExploreResult {
  uint64_t schedules = 0;  ///< Complete (non-deadlocked) paths explored.
  uint64_t deadlocks = 0;  ///< Paths ending with pending-but-disabled ops.
  uint64_t steps = 0;      ///< Total ops executed across all paths.
};

/// Exhaustively explores every interleaving of the scenario produced by
/// \p make (called once per path — it must build a *fresh* world each
/// time; any state shared across calls breaks replay determinism).
/// \p max_paths is a runaway bound: exceeding it aborts via STJ_CHECK,
/// because an unexpectedly large schedule space means the scenario is not
/// the small exhaustive proof it claims to be.
inline ExploreResult ExploreAll(const std::function<Instance()>& make,
                                uint64_t max_paths = 1u << 20) {
  ExploreResult result;
  std::vector<size_t> prefix;  // Choice taken at step i (index into enabled).
  std::vector<size_t> widths;  // |enabled| observed at step i.

  for (;;) {
    STJ_CHECK_MSG(result.schedules + result.deadlocks < max_paths,
                  "model scenario exceeds the path bound; shrink it");
    Instance inst = make();
    std::vector<size_t> pc(inst.threads.size(), 0);
    widths.clear();
    bool deadlocked = false;

    for (size_t step = 0;; ++step) {
      // Enabled frontier: threads with a pending op whose wake condition
      // holds in the current world state.
      std::vector<size_t> enabled;
      bool pending = false;
      for (size_t t = 0; t < inst.threads.size(); ++t) {
        if (pc[t] >= inst.threads[t].ops.size()) continue;
        pending = true;
        const Op& op = inst.threads[t].ops[pc[t]];
        if (!op.enabled || op.enabled()) enabled.push_back(t);
      }
      if (!pending) break;  // Complete schedule.
      if (enabled.empty()) {
        deadlocked = true;
        break;
      }
      if (step == prefix.size()) prefix.push_back(0);
      STJ_CHECK_MSG(prefix[step] < enabled.size(),
                    "replay divergence: world evolution is not "
                    "deterministic under the recorded choices");
      widths.push_back(enabled.size());
      const size_t t = enabled[prefix[step]];
      inst.threads[t].ops[pc[t]].run();
      ++pc[t];
      ++result.steps;
      if (inst.check_step) inst.check_step();
    }

    if (deadlocked) {
      ++result.deadlocks;
    } else {
      ++result.schedules;
      if (inst.check_final) inst.check_final();
    }

    // Backtrack: drop exhausted tail choices, advance the deepest live one.
    STJ_CHECK_MSG(prefix.size() == widths.size(),
                  "replay divergence: path shorter than its choice prefix");
    while (!prefix.empty() && prefix.back() + 1 >= widths.back()) {
      prefix.pop_back();
      widths.pop_back();
    }
    if (prefix.empty()) return result;
    ++prefix.back();
  }
}

}  // namespace stj::model
