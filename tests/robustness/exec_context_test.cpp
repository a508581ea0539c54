#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/datasets/scenarios.h"
#include "src/join/mbr_join.h"
#include "src/topology/parallel.h"
#include "src/util/exec_context.h"
#include "tests/robustness/fault_schedule.h"

// Cancellation/budget layer tests: the contract under test is *loss-less
// cooperative cancellation* — a tripped query stops at work-unit boundaries,
// every result produced before the cut is final and identical to what the
// unbounded run would have produced, and the PartialResult names exactly
// those results. Most tests pin the trip to an exact check-in ordinal via
// FaultSchedule so the cut is reproducible; the one wall-clock test checks
// the realised latency of a real 50 ms deadline.

// Sanitizer / unoptimised builds run the refinement kernels an order of
// magnitude slower, which stretches the time from a trip to the next pair
// boundary; the wall-clock latency bound scales accordingly.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define STJ_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define STJ_TEST_SANITIZED 1
#endif
#endif
#ifndef STJ_TEST_SANITIZED
#define STJ_TEST_SANITIZED 0
#endif

namespace stj {
namespace {

#if STJ_TEST_SANITIZED || !defined(NDEBUG)
constexpr int64_t kCancelBudgetMs = 5000;
#else
constexpr int64_t kCancelBudgetMs = 100;  // the ISSUE's acceptance bound
#endif

TEST(ExecContext, FirstTripWinsAndMapsToStatus) {
  ExecContext ctx;
  EXPECT_FALSE(ctx.StopRequested());
  EXPECT_TRUE(ctx.ToStatus().ok());

  EXPECT_TRUE(ctx.RequestStop(StopCause::kDeadlineExceeded));
  EXPECT_FALSE(ctx.RequestStop(StopCause::kCancelled));  // too late
  EXPECT_TRUE(ctx.StopRequested());
  EXPECT_EQ(ctx.cause(), StopCause::kDeadlineExceeded);
  EXPECT_EQ(ctx.ToStatus().code(), StatusCode::kDeadlineExceeded);

  ExecContext cancelled;
  cancelled.Cancel();
  EXPECT_EQ(cancelled.ToStatus().code(), StatusCode::kCancelled);
}

TEST(ExecContext, BudgetArithmeticTripsOnOverflow) {
  ExecContext ctx;
  EXPECT_TRUE(ctx.TryCharge(1 << 20));  // no budget armed: everything fits

  ExecContext bounded;
  bounded.SetMemoryBudget(100);
  EXPECT_TRUE(bounded.TryCharge(60));
  EXPECT_EQ(bounded.charged_bytes(), 60u);
  EXPECT_FALSE(bounded.TryCharge(50));  // 110 > 100: trip
  EXPECT_EQ(bounded.cause(), StopCause::kMemoryExceeded);
  EXPECT_EQ(bounded.ToStatus().code(), StatusCode::kResourceExhausted);
  // A tripped context refuses further charges even after a release.
  bounded.Release(60);
  EXPECT_FALSE(bounded.TryCharge(1));
  EXPECT_EQ(bounded.charged_bytes(), 60u);
}

TEST(ExecContext, NullScopeIsANoOp) {
  ExecContext::Scope scope(nullptr);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(scope.CheckIn());
  EXPECT_FALSE(scope.stopped());
  EXPECT_EQ(scope.checkins(), 0u);
}

TEST(ExecContext, ScopeFlushesWatchdogTotalsOnDestruction) {
  ExecContext ctx;
  {
    ExecContext::Scope scope(&ctx);
    for (int i = 0; i < 7; ++i) EXPECT_FALSE(scope.CheckIn());
    EXPECT_EQ(scope.checkins(), 7u);
    // Not yet flushed: totals move only when the scope dies.
    EXPECT_EQ(ctx.WatchdogSnapshot().checkins, 0u);
  }
  EXPECT_EQ(ctx.WatchdogSnapshot().checkins, 7u);
}

TEST(ExecContext, ScopeObservesTripExactlyOnce) {
  ExecContext ctx;
  ExecContext::Scope scope(&ctx);
  EXPECT_FALSE(scope.CheckIn());
  ctx.Cancel();
  EXPECT_TRUE(scope.CheckIn());
  EXPECT_TRUE(scope.stopped());
  EXPECT_EQ(scope.observed_cause(), StopCause::kCancelled);
  EXPECT_TRUE(scope.CheckIn());  // sticky
  const ExecWatchdogStats stats = [&] {
    ExecContext::Scope second(&ctx);
    EXPECT_TRUE(second.CheckIn());
    return ctx.WatchdogSnapshot();
  }();
  EXPECT_EQ(stats.stop_observations, 2u);  // one per observing scope
}

/// Differential fixture: a small real scenario plus its unbounded
/// ground-truth join, against which every partial result is checked.
class ExecContextJoinTest : public ::testing::Test {
 protected:
  ExecContextJoinTest() {
    ScenarioOptions options;
    options.scale = 0.05;
    options.grid_order = 10;
    scenario_ = BuildScenario("OLE-OPE", options);
    full_ = ParallelFindRelation(Method::kPC, scenario_.RView(),
                                 scenario_.SView(), scenario_.candidates,
                                 JoinOptions{.num_threads = 1});
    EXPECT_TRUE(full_.status.ok());
    EXPECT_TRUE(full_.partial.Complete());
    // The fault schedules below assume a non-trivial pair count.
    EXPECT_GT(scenario_.candidates.size(), 60u);
  }

  /// Asserts the loss-less contract: \p result answered a strict non-empty
  /// subset of the pairs, and every answered relation equals the unbounded
  /// run's answer for that pair.
  void ExpectPrefixConsistent(const ParallelJoinResult& result) {
    const PartialResult& partial = result.partial;
    ASSERT_EQ(partial.total, scenario_.candidates.size());
    EXPECT_GT(partial.completed, 0u);
    EXPECT_LT(partial.completed, partial.total);
    ASSERT_EQ(partial.done.size(), partial.total);
    uint64_t answered = 0;
    for (size_t i = 0; i < partial.total; ++i) {
      if (!partial.Answered(i)) continue;
      ++answered;
      EXPECT_EQ(result.relations[i], full_.relations[i]) << "pair " << i;
    }
    EXPECT_EQ(answered, partial.completed);
  }

  /// Finishes exactly the pairs \p cut left unanswered, unbounded on
  /// \p threads workers, and checks that merging the two runs by pair index
  /// reproduces the unbounded result — nothing was half-done, nothing
  /// answered twice.
  void ExpectRemainderRerunReproducesFull(const ParallelJoinResult& cut,
                                          unsigned threads) {
    std::vector<CandidatePair> remainder;
    std::vector<size_t> remainder_index;
    for (size_t i = 0; i < scenario_.candidates.size(); ++i) {
      if (cut.partial.Answered(i)) continue;
      remainder.push_back(scenario_.candidates[i]);
      remainder_index.push_back(i);
    }
    ASSERT_EQ(remainder.size(), cut.partial.total - cut.partial.completed);
    const ParallelJoinResult rest = ParallelFindRelation(
        Method::kPC, scenario_.RView(), scenario_.SView(), remainder,
        JoinOptions{.num_threads = threads});
    ASSERT_TRUE(rest.status.ok());
    std::vector<de9im::Relation> merged = cut.relations;
    for (size_t k = 0; k < remainder.size(); ++k) {
      merged[remainder_index[k]] = rest.relations[k];
    }
    EXPECT_EQ(merged, full_.relations);
  }

  ScenarioData scenario_;
  ParallelJoinResult full_;
};

TEST_F(ExecContextJoinTest, CancelAtNthCheckInYieldsPrefixConsistentSubset) {
  ExecContext ctx;
  test::FaultSchedule schedule;
  schedule.cancel_at_checkin = 50;
  schedule.Install(&ctx);

  const ParallelJoinResult result = ParallelFindRelation(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      JoinOptions{.num_threads = 4, .exec = &ctx});
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  ExpectPrefixConsistent(result);

  const ExecWatchdogStats watchdog = ctx.WatchdogSnapshot();
  EXPECT_GE(watchdog.checkins, 50u);
  EXPECT_GE(watchdog.stop_observations, 1u);
  // The merged per-stage stats carry the same totals as the watchdog.
  EXPECT_EQ(result.stats.checkins, watchdog.checkins);
}

TEST_F(ExecContextJoinTest, RerunningTheRemainderReproducesTheFullResult) {
  ExecContext ctx;
  test::FaultSchedule schedule;
  schedule.cancel_at_checkin = 40;
  schedule.Install(&ctx);

  const ParallelJoinResult cut = ParallelFindRelation(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      JoinOptions{.num_threads = 2, .exec = &ctx});
  ASSERT_EQ(cut.status.code(), StatusCode::kCancelled);
  ASSERT_FALSE(cut.partial.Complete());
  ExpectRemainderRerunReproducesFull(cut, /*threads=*/2);
}

TEST_F(ExecContextJoinTest, SingleThreadCancelIsAnExactInputOrderPrefix) {
  constexpr uint64_t kTripAt = 25;
  ExecContext ctx;
  test::FaultSchedule schedule;
  schedule.cancel_at_checkin = kTripAt;
  schedule.Install(&ctx);

  const ParallelJoinResult result = ParallelFindRelation(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      JoinOptions{.num_threads = 1, .exec = &ctx});
  ASSERT_EQ(result.status.code(), StatusCode::kCancelled);
  // One check-in precedes each pair, so tripping the Nth check-in means
  // exactly N-1 pairs completed — and single-threaded execution processes
  // pairs in input order, so they are precisely the first N-1.
  EXPECT_EQ(result.partial.completed, kTripAt - 1);
  ASSERT_EQ(result.partial.done.size(), scenario_.candidates.size());
  for (size_t i = 0; i < result.partial.done.size(); ++i) {
    EXPECT_EQ(result.partial.done[i] != 0, i < kTripAt - 1) << "pair " << i;
    if (i < kTripAt - 1) {
      EXPECT_EQ(result.relations[i], full_.relations[i]);
    }
  }
}

TEST_F(ExecContextJoinTest, InjectedDeadlineReportsDeadlineStatusAndStats) {
  ExecContext ctx;
  test::FaultSchedule schedule;
  schedule.deadline_at_checkin = 30;
  schedule.Install(&ctx);

  const ParallelJoinResult result = ParallelFindRelation(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      JoinOptions{.num_threads = 2, .exec = &ctx});
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  ExpectPrefixConsistent(result);
  // Every worker scope that observed this trip accounts one deadline hit.
  EXPECT_GE(result.stats.deadline_hits, 1u);
  EXPECT_EQ(result.stats.deadline_hits,
            ctx.WatchdogSnapshot().stop_observations);
}

TEST_F(ExecContextJoinTest, RelatePredicatePartialIsPrefixConsistent) {
  const ParallelRelateResult truth = ParallelRelate(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      de9im::Relation::kIntersects, JoinOptions{.num_threads = 1});
  ASSERT_TRUE(truth.status.ok());

  ExecContext ctx;
  test::FaultSchedule schedule;
  schedule.cancel_at_checkin = 35;
  schedule.Install(&ctx);
  const ParallelRelateResult cut = ParallelRelate(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      de9im::Relation::kIntersects,
      JoinOptions{.num_threads = 2, .exec = &ctx});
  EXPECT_EQ(cut.status.code(), StatusCode::kCancelled);
  EXPECT_GT(cut.partial.completed, 0u);
  EXPECT_LT(cut.partial.completed, cut.partial.total);
  for (size_t i = 0; i < scenario_.candidates.size(); ++i) {
    if (!cut.partial.Answered(i)) continue;
    EXPECT_EQ(cut.matches[i], truth.matches[i]) << "pair " << i;
  }
}

/// Cuts through the block executor at 4 threads. A worker checks in before
/// each filter and each refinement of its claimed block, so a trip can land
/// in either phase: pairs the filter decided stay answered, the block's
/// deferred pairs not refined yet stay not-done, and no worker is left
/// waiting on another.
using BatchCancelTest = ExecContextJoinTest;

TEST_F(BatchCancelTest, CancelMidBatchIsSubsetConsistent) {
  // Early, middle and late trip points. A worker refines its block before it
  // claims the next, so the later cuts land among refinement check-ins as
  // well as filter check-ins. Even the last one cuts the run: the filter
  // phases alone check in once per pair.
  const uint64_t pairs = scenario_.candidates.size();
  for (const uint64_t trip_at : {uint64_t{40}, pairs / 2, pairs}) {
    SCOPED_TRACE(::testing::Message() << "cancel_at_checkin=" << trip_at);
    ExecContext ctx;
    test::FaultSchedule schedule;
    schedule.cancel_at_checkin = trip_at;
    schedule.Install(&ctx);

    const ParallelJoinResult cut = ParallelFindRelation(
        Method::kPC, scenario_.RView(), scenario_.SView(),
        scenario_.candidates, JoinOptions{.num_threads = 4, .exec = &ctx});
    ASSERT_EQ(cut.status.code(), StatusCode::kCancelled);
    ExpectPrefixConsistent(cut);
  }
}

TEST_F(BatchCancelTest, DeadlineMidBatchIsSubsetConsistent) {
  ExecContext ctx;
  test::FaultSchedule schedule;
  schedule.deadline_at_checkin = 65;
  schedule.Install(&ctx);

  const ParallelJoinResult cut = ParallelFindRelation(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      JoinOptions{.num_threads = 4, .exec = &ctx});
  ASSERT_EQ(cut.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(cut.stats.deadline_hits, 1u);
  ExpectPrefixConsistent(cut);
}

TEST_F(BatchCancelTest, RemainderRerunReproducesFullResult) {
  ExecContext ctx;
  test::FaultSchedule schedule;
  schedule.cancel_at_checkin = 50;
  schedule.Install(&ctx);
  const ParallelJoinResult cut = ParallelFindRelation(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      JoinOptions{.num_threads = 4, .exec = &ctx});
  ASSERT_EQ(cut.status.code(), StatusCode::kCancelled);
  ASSERT_FALSE(cut.partial.Complete());
  ExpectRemainderRerunReproducesFull(cut, /*threads=*/4);
}

TEST_F(BatchCancelTest, PreTrippedContextAnswersNothing) {
  ExecContext ctx;
  ctx.RequestStop(StopCause::kCancelled);
  const ParallelJoinResult cut = ParallelFindRelation(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      JoinOptions{.num_threads = 4, .exec = &ctx});
  EXPECT_EQ(cut.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(cut.partial.completed, 0u);
}

TEST_F(BatchCancelTest, RelateCancelMidBatchIsSubsetConsistent) {
  const ParallelRelateResult truth = ParallelRelate(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      de9im::Relation::kIntersects, JoinOptions{.num_threads = 1});
  ASSERT_TRUE(truth.status.ok());

  ExecContext ctx;
  test::FaultSchedule schedule;
  schedule.cancel_at_checkin = 45;
  schedule.Install(&ctx);
  const ParallelRelateResult cut = ParallelRelate(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      de9im::Relation::kIntersects,
      JoinOptions{.num_threads = 4, .exec = &ctx});
  EXPECT_EQ(cut.status.code(), StatusCode::kCancelled);
  EXPECT_GT(cut.partial.completed, 0u);
  EXPECT_LT(cut.partial.completed, cut.partial.total);

  // Every answered pair is final, and re-running exactly the unanswered
  // remainder completes the unbounded answer.
  std::vector<CandidatePair> remainder;
  std::vector<size_t> remainder_index;
  for (size_t i = 0; i < scenario_.candidates.size(); ++i) {
    if (cut.partial.Answered(i)) {
      EXPECT_EQ(cut.matches[i], truth.matches[i]) << "pair " << i;
      continue;
    }
    remainder.push_back(scenario_.candidates[i]);
    remainder_index.push_back(i);
  }
  ASSERT_EQ(remainder.size(), cut.partial.total - cut.partial.completed);
  const ParallelRelateResult rest = ParallelRelate(
      Method::kPC, scenario_.RView(), scenario_.SView(), remainder,
      de9im::Relation::kIntersects, JoinOptions{.num_threads = 4});
  ASSERT_TRUE(rest.status.ok());
  std::vector<char> merged = cut.matches;
  for (size_t k = 0; k < remainder.size(); ++k) {
    merged[remainder_index[k]] = rest.matches[k];
  }
  EXPECT_EQ(merged, truth.matches);
}

TEST_F(ExecContextJoinTest, MemoryBudgetTripDuringAprilBuildKeepsJoinExact) {
  // A budget that admits a few records but not the whole store: the build
  // stops cooperatively, keeps everything charged before the trip, and
  // flags the rest unusable — the degraded-load shape, so the join must
  // still match ground truth exactly via refinement fallback.
  ExecContext ctx;
  ctx.SetMemoryBudget(4096);
  const RasterGrid grid(scenario_.dataspace, scenario_.grid_order);
  const std::vector<AprilApproximation> partial_april =
      BuildAprilApproximations(scenario_.r, grid, /*num_threads=*/2,
                               /*per_cell_oracle=*/false, &ctx);
  ASSERT_TRUE(ctx.StopRequested());
  EXPECT_EQ(ctx.ToStatus().code(), StatusCode::kResourceExhausted);
  ASSERT_EQ(partial_april.size(), scenario_.r.objects.size());
  size_t unusable = 0;
  for (const AprilApproximation& a : partial_april) unusable += a.usable ? 0 : 1;
  EXPECT_GT(unusable, 0u);

  const DatasetView r_view{&scenario_.r.objects, &partial_april};
  const ParallelJoinResult degraded =
      ParallelFindRelation(Method::kPC, r_view, scenario_.SView(),
                           scenario_.candidates, JoinOptions{.num_threads = 2});
  ASSERT_TRUE(degraded.status.ok());
  EXPECT_EQ(degraded.relations, full_.relations);
  EXPECT_GT(degraded.stats.fallback_refined, 0u);
}

TEST_F(ExecContextJoinTest, InjectedAllocationFailureAtNthCharge) {
  // Fail the 3rd tracked allocation: with one worker the build is input
  // order, so records 0 and 1 survive and everything from the failed charge
  // on is flagged unusable.
  ExecContext ctx;
  test::FaultSchedule schedule;
  schedule.fail_charge_at = 3;
  schedule.Install(&ctx);
  const RasterGrid grid(scenario_.dataspace, scenario_.grid_order);
  const std::vector<AprilApproximation> partial_april =
      BuildAprilApproximations(scenario_.r, grid, /*num_threads=*/1,
                               /*per_cell_oracle=*/false, &ctx);
  ASSERT_TRUE(ctx.StopRequested());
  EXPECT_EQ(ctx.cause(), StopCause::kMemoryExceeded);
  ASSERT_EQ(partial_april.size(), scenario_.r.objects.size());
  for (size_t i = 0; i < partial_april.size(); ++i) {
    EXPECT_EQ(partial_april[i].usable, i < 2) << "record " << i;
  }

  const DatasetView r_view{&scenario_.r.objects, &partial_april};
  const ParallelJoinResult degraded =
      ParallelFindRelation(Method::kPC, r_view, scenario_.SView(),
                           scenario_.candidates, JoinOptions{.num_threads = 2});
  EXPECT_EQ(degraded.relations, full_.relations);
  EXPECT_GT(degraded.stats.fallback_refined, 0u);
}

TEST_F(ExecContextJoinTest, MbrJoinStopsCooperativelyAndFlagsTheCut) {
  const std::vector<Box> r_mbrs = scenario_.r.Mbrs();
  const std::vector<Box> s_mbrs = scenario_.s.Mbrs();
  MbrJoin::Options unbounded;
  unbounded.num_threads = 2;
  const std::vector<CandidatePair> all = MbrJoin::Join(r_mbrs, s_mbrs,
                                                       unbounded);

  ExecContext ctx;
  test::FaultSchedule schedule;
  schedule.cancel_at_checkin = 4;
  schedule.Install(&ctx);
  MbrJoin::Options bounded = unbounded;
  bounded.exec = &ctx;
  const std::vector<CandidatePair> cut = MbrJoin::Join(r_mbrs, s_mbrs,
                                                       bounded);
  // The trip must be visible to the caller — a cut-short candidate set is
  // "query stopped", never "smaller join".
  EXPECT_TRUE(ctx.StopRequested());
  EXPECT_LT(cut.size(), all.size());

  // A budget too small for the tile tables stops the join before any pair
  // is emitted.
  ExecContext tiny;
  tiny.SetMemoryBudget(16);
  MbrJoin::Options strangled = unbounded;
  strangled.exec = &tiny;
  const std::vector<CandidatePair> none = MbrJoin::Join(r_mbrs, s_mbrs,
                                                        strangled);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(tiny.cause(), StopCause::kMemoryExceeded);
}

TEST(ExecContextDeadline, FiftyMsDeadlineCutsAMultiSecondJoinFast) {
  // The ISSUE's acceptance scenario: a refinement workload that normally
  // runs for seconds must, under a 50 ms deadline, come back quickly with a
  // non-empty prefix-consistent partial result. ST2 refines every
  // intersecting pair, so even a mid-sized scenario gives multi-second
  // unbounded runtimes without making this test expensive to set up.
  ScenarioOptions options;
  options.scale = 0.3;
  options.build_april = false;  // ST2 never consults the approximations
  ScenarioData scenario = BuildScenario("OLE-OPE", options);
  ASSERT_GT(scenario.candidates.size(), 1000u);
  const DatasetView r_view{&scenario.r.objects, nullptr};
  const DatasetView s_view{&scenario.s.objects, nullptr};

  // The wall-clock SLA is measured under whatever load the test runner puts
  // on the machine (ctest schedules many binaries in parallel), so a single
  // attempt can blow the budget on scheduler noise alone. Correctness
  // invariants must hold on every attempt; the latency bound must hold on at
  // least one of a few.
  ParallelJoinResult result;
  int64_t best_elapsed_ms = std::numeric_limits<int64_t>::max();
  for (int attempt = 0; attempt < 3; ++attempt) {
    ExecContext ctx;
    ctx.SetDeadlineAfter(std::chrono::milliseconds(50));
    const auto start = std::chrono::steady_clock::now();
    result = ParallelFindRelation(
        Method::kST2, r_view, s_view, scenario.candidates,
        JoinOptions{.num_threads = 4, .exec = &ctx});
    const int64_t elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    best_elapsed_ms = std::min(best_elapsed_ms, elapsed_ms);

    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_GT(result.partial.completed, 0u);
    EXPECT_LT(result.partial.completed, result.partial.total);
    EXPECT_GE(result.stats.deadline_hits, 1u);
    EXPECT_GT(ctx.WatchdogSnapshot().deadline_polls, 0u);
    if (elapsed_ms < kCancelBudgetMs) break;
  }
  EXPECT_LT(best_elapsed_ms, kCancelBudgetMs);

  // Prefix consistency, verified cheaply: re-answer only the answered pairs
  // unbounded and compare — the partial run must have produced the same
  // relations.
  std::vector<CandidatePair> answered;
  std::vector<size_t> answered_index;
  for (size_t i = 0; i < scenario.candidates.size(); ++i) {
    if (!result.partial.Answered(i)) continue;
    answered.push_back(scenario.candidates[i]);
    answered_index.push_back(i);
  }
  const ParallelJoinResult redo = ParallelFindRelation(
      Method::kST2, r_view, s_view, answered, JoinOptions{.num_threads = 4});
  ASSERT_TRUE(redo.status.ok());
  for (size_t k = 0; k < answered.size(); ++k) {
    EXPECT_EQ(result.relations[answered_index[k]], redo.relations[k])
        << "pair " << answered_index[k];
  }
}

}  // namespace
}  // namespace stj
