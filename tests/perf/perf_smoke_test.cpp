#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/datasets/scenarios.h"
#include "src/geometry/edge_slab_index.h"
#include "src/join/mbr_join.h"
#include "src/topology/parallel.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

// Fast smoke tests for the parallel hot stages (ctest label: perf_smoke).
// They assert the one property the perf work must never trade away — the
// parallel paths return exactly what the single-threaded paths return — on
// a scenario small enough to run inside sanitizer presets. The tsan preset
// picks these up via its name filter, so every data-race-prone code path
// here is exercised under TSan on each sanitize run.

namespace stj {
namespace {

class PerfSmoke : public ::testing::Test {
 protected:
  PerfSmoke() {
    ScenarioOptions options;
    options.scale = 0.02;
    options.grid_order = 10;
    scenario_ = BuildScenario("OLE-OPE", options);
  }
  ScenarioData scenario_;
};

TEST_F(PerfSmoke, ParallelFilterMatchesSingleThread) {
  const std::vector<Box> r = scenario_.r.Mbrs();
  const std::vector<Box> s = scenario_.s.Mbrs();
  // Brute force enumerates in (r, s) order, the join's canonical output.
  const std::vector<CandidatePair> want = MbrJoin::JoinBruteForce(r, s);
  ASSERT_FALSE(want.empty());
  for (const unsigned threads : {1u, 4u}) {
    MbrJoin::Options options;
    options.num_threads = threads;
    EXPECT_EQ(MbrJoin::Join(r, s, options), want) << "threads=" << threads;
  }
}

TEST_F(PerfSmoke, ParallelFindRelationMatchesSingleThread) {
  ASSERT_FALSE(scenario_.candidates.empty());
  const ParallelJoinResult serial = ParallelFindRelation(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      JoinOptions{.num_threads = 1});
  const ParallelJoinResult parallel = ParallelFindRelation(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      JoinOptions{.num_threads = 4});
  EXPECT_EQ(serial.relations, parallel.relations);
  EXPECT_EQ(serial.stats.refined, parallel.stats.refined);
}

TEST_F(PerfSmoke, PreparedCacheMatchesUncachedRefinement) {
  // The prepared-geometry cache is a refinement-only perf layer; this pins
  // its no-result-change contract under the sanitizer presets (asan/ubsan
  // see the LRU's relinking and eviction churn; the 1-byte budget
  // maximises that churn).
  ASSERT_FALSE(scenario_.candidates.empty());
  const JoinOptions uncached{.num_threads = 1,
                             .time_stages = false,
                             .prepared_cache_bytes = 0};
  const ParallelJoinResult reference = ParallelFindRelation(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      uncached);
  for (const size_t budget : {size_t{1}, kDefaultPreparedCacheBytes}) {
    for (const unsigned threads : {1u, 4u}) {
      const JoinOptions cached{.num_threads = threads,
                               .time_stages = false,
                               .prepared_cache_bytes = budget};
      const ParallelJoinResult run = ParallelFindRelation(
          Method::kPC, scenario_.RView(), scenario_.SView(),
          scenario_.candidates, cached);
      EXPECT_EQ(run.relations, reference.relations)
          << "budget=" << budget << " threads=" << threads;
      EXPECT_EQ(run.stats.refined, reference.stats.refined)
          << "budget=" << budget << " threads=" << threads;
    }
  }
}

TEST_F(PerfSmoke, ParallelRelateMatchesSingleThread) {
  const ParallelRelateResult serial = ParallelRelate(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      de9im::Relation::kIntersects, JoinOptions{.num_threads = 1});
  const ParallelRelateResult parallel = ParallelRelate(
      Method::kPC, scenario_.RView(), scenario_.SView(), scenario_.candidates,
      de9im::Relation::kIntersects, JoinOptions{.num_threads = 4});
  EXPECT_EQ(serial.matches, parallel.matches);
}

TEST(EdgeSlabIndexConcurrency, FourThreadsQueryOneIndexLikeOne) {
  // A built index is immutable: four threads locating points and probing
  // y-ranges on one shared index see what one thread sees (and, under
  // TSan, race on nothing).
  Rng rng(67);
  const Polygon poly = test::RandomBlob(&rng, Point{0, 0}, 10.0, 2000,
                                        /*hole_probability=*/0.8);
  const EdgeSlabIndex index(poly);
  std::vector<Point> points;
  for (int i = 0; i < 4000; ++i) {
    points.push_back(Point{rng.Uniform(-12, 12), rng.Uniform(-12, 12)});
  }
  const auto run = [&](size_t first, size_t step, std::vector<int64_t>* out) {
    for (size_t i = first; i < points.size(); i += step) {
      int64_t probed = 0;
      index.Probe(points[i].y - 0.5, points[i].y + 0.5,
                  [&](uint32_t id) { probed += id + 1; });
      (*out)[i] = probed * 3 + static_cast<int64_t>(index.Locate(points[i]));
    }
  };
  std::vector<int64_t> serial(points.size());
  run(0, 1, &serial);
  std::vector<int64_t> parallel(points.size());
  std::vector<std::thread> workers;
  for (size_t t = 0; t < 4; ++t) workers.emplace_back(run, t, 4, &parallel);
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(parallel, serial);
}

}  // namespace
}  // namespace stj
