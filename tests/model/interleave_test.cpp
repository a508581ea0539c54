// Self-checks of the interleaving model checker (tests/model/interleave.h,
// DESIGN.md §16), over a trivial world: a step log plus a counter that a
// blocking "wait" op watches. They pin the two properties every model
// scenario relies on:
//   - exhaustiveness: the explored schedule count is exactly the
//     multinomial of the programs' op counts, each schedule distinct;
//   - deadlock detection: a blocking op whose wake condition can never hold
//     is reported as a deadlock rather than hanging or passing — the
//     negative control that makes `deadlocks == 0` meaningful elsewhere.

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tests/model/interleave.h"

namespace stj {
namespace {

using model::ExploreAll;
using model::ExploreResult;
using model::Instance;
using model::Op;
using model::ThreadProgram;

/// The world: which op ran when, and a counter the waiters watch.
struct World {
  std::string log;
  int counter = 0;
};

/// An always-enabled op that appends \p tag to the log and bumps the
/// counter.
Op Step(const std::shared_ptr<World>& w, char tag) {
  return Op{std::string(1, tag), nullptr, [w, tag] {
              w->log.push_back(tag);
              ++w->counter;
            }};
}

/// A blocking op: enabled only once the counter reaches \p at_least.
Op WaitFor(const std::shared_ptr<World>& w, int at_least) {
  return Op{"wait", [w, at_least] { return w->counter >= at_least; },
            [w] { w->log.push_back('w'); }};
}

/// n! / (k1! k2! ...) — the exact number of interleavings of programs with
/// the given op counts when every op is always enabled.
uint64_t Multinomial(const std::vector<uint64_t>& counts) {
  uint64_t result = 1;
  uint64_t step = 1;
  for (const uint64_t c : counts) {
    for (uint64_t i = 1; i <= c; ++i) result = result * step++ / i;
  }
  return result;
}

/// Explores \p programs (built fresh per path by \p make) and collects the
/// final log of every complete schedule.
ExploreResult ExploreLogs(
    const std::function<std::vector<ThreadProgram>(
        const std::shared_ptr<World>&)>& make,
    std::multiset<std::string>* logs) {
  return ExploreAll([&make, logs] {
    auto w = std::make_shared<World>();
    Instance inst;
    inst.world = w;
    inst.threads = make(w);
    inst.check_final = [w, logs] { logs->insert(w->log); };
    return inst;
  });
}

// Two programs of two always-enabled ops: exactly 4!/(2!2!) = 6 schedules,
// every one a different order — the checker enumerates every interleaving,
// no more, no fewer.
TEST(Interleave, EnumeratesExactlyTheMultinomialScheduleCount) {
  std::multiset<std::string> logs;
  const ExploreResult r = ExploreLogs(
      [](const std::shared_ptr<World>& w) {
        return std::vector<ThreadProgram>{
            ThreadProgram{"p1", {Step(w, 'a'), Step(w, 'b')}},
            ThreadProgram{"p2", {Step(w, 'c'), Step(w, 'd')}}};
      },
      &logs);
  EXPECT_EQ(r.schedules, Multinomial({2, 2}));
  EXPECT_EQ(r.deadlocks, 0u);
  EXPECT_EQ(r.steps, Multinomial({2, 2}) * 4);
  EXPECT_EQ(std::set<std::string>(logs.begin(), logs.end()).size(),
            logs.size())
      << "a schedule was explored twice";
  for (const std::string& log : logs) {
    // Program order is preserved within each thread.
    EXPECT_LT(log.find('a'), log.find('b')) << log;
    EXPECT_LT(log.find('c'), log.find('d')) << log;
  }
}

// Three-thread version of the count check: 5!/(2!2!1!) = 30 schedules.
TEST(Interleave, MultinomialCountWithThreeThreads) {
  std::multiset<std::string> logs;
  const ExploreResult r = ExploreLogs(
      [](const std::shared_ptr<World>& w) {
        return std::vector<ThreadProgram>{
            ThreadProgram{"p1", {Step(w, 'a'), Step(w, 'b')}},
            ThreadProgram{"p2", {Step(w, 'c'), Step(w, 'd')}},
            ThreadProgram{"p3", {Step(w, 'e')}}};
      },
      &logs);
  EXPECT_EQ(r.schedules, Multinomial({2, 2, 1}));
  EXPECT_EQ(r.deadlocks, 0u);
  EXPECT_EQ(std::set<std::string>(logs.begin(), logs.end()).size(),
            r.schedules);
}

// A blocked op is scheduled only once its wake condition holds: the waiter
// needs both steps to have run, so every schedule ends with it.
TEST(Interleave, BlockedOpRunsOnlyOnceEnabled) {
  std::multiset<std::string> logs;
  const ExploreResult r = ExploreLogs(
      [](const std::shared_ptr<World>& w) {
        return std::vector<ThreadProgram>{
            ThreadProgram{"stepper", {Step(w, 'a'), Step(w, 'b')}},
            ThreadProgram{"waiter", {WaitFor(w, 2)}}};
      },
      &logs);
  EXPECT_EQ(r.schedules, 1u);
  EXPECT_EQ(r.deadlocks, 0u);
  EXPECT_EQ(logs, (std::multiset<std::string>{"abw"}));
}

// A waiter whose wake condition can never hold (it needs two steps, only
// one exists) MUST be reported as a deadlock on every path — the negative
// control for the enabledness machinery.
TEST(Interleave, ReportsDeadlockWhenNoWakeIsPossible) {
  std::multiset<std::string> logs;
  const ExploreResult r = ExploreLogs(
      [](const std::shared_ptr<World>& w) {
        return std::vector<ThreadProgram>{
            ThreadProgram{"stepper", {Step(w, 'a')}},
            ThreadProgram{"waiter", {WaitFor(w, 2)}}};
      },
      &logs);
  EXPECT_EQ(r.schedules, 0u);
  EXPECT_GT(r.deadlocks, 0u);
  EXPECT_TRUE(logs.empty());
}

}  // namespace
}  // namespace stj
