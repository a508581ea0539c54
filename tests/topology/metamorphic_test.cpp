// Metamorphic checks of the topology join, which need no external oracle:
//
//  - The raster grid order changes what the intermediate filter decides,
//    never the answers: P+C over approximations built at grid orders
//    4, 6, ..., 16 answers every candidate pair exactly as ST2 does. Short
//    and long interval lists both reach the same merge-joins this way.
//  - Joining S with R yields the converse of every R-S relation, at 1, 4
//    and twice the hardware threads.
//  - Splitting S never changes the answers: join(R, S) is the union of the
//    joins of R with each part of S, for contiguous thirds and for an
//    odd/even split, every part rasterised on the full scenario's grid.
//  - Rotating both inputs by a multiple of 90° or reflecting them in an
//    axis never changes the candidates or the answers, although the
//    approximations then come from other curve frames. Translation is left
//    out: adding a constant rounds the coordinates, so it is not exact.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "src/datasets/scenarios.h"
#include "src/de9im/relation.h"
#include "src/join/mbr_join.h"
#include "src/raster/grid.h"
#include "src/topology/parallel.h"
#include "tests/test_support.h"

namespace stj {
namespace {

constexpr double kScale = 0.01;
constexpr unsigned kThreads = 4;

using test::Oversubscribed;

/// kThreads, the hardware threads and Oversubscribed(), without repeats.
std::vector<unsigned> SweepThreads() {
  std::vector<unsigned> counts = {kThreads, test::HardwareThreads(),
                                  Oversubscribed()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

/// P+C answers the candidates of \p name exactly as ST2 does at every even
/// grid order from 4 to \p max_order; the filter's counters must move.
void ExpectAnswersIndependentOfGridOrder(const char* name,
                                         uint32_t max_order) {
  ScenarioOptions options;
  options.scale = kScale;
  options.build_april = false;  // built per grid order below
  const ScenarioData scenario = BuildScenario(name, options);
  ASSERT_FALSE(scenario.candidates.empty()) << name;

  const JoinOptions join{.num_threads = kThreads};
  const ParallelJoinResult st2 = ParallelFindRelation(
      Method::kST2, DatasetView{&scenario.r.objects},
      DatasetView{&scenario.s.objects}, scenario.candidates, join);
  ASSERT_TRUE(st2.status.ok()) << name;

  std::vector<uint64_t> decided_by_filter;
  for (uint32_t order = 4; order <= max_order; order += 2) {
    const RasterGrid grid(scenario.dataspace, order);
    const std::vector<AprilApproximation> r_april =
        BuildAprilApproximations(scenario.r, grid, kThreads);
    const std::vector<AprilApproximation> s_april =
        BuildAprilApproximations(scenario.s, grid, kThreads);
    for (const unsigned threads : SweepThreads()) {
      const ParallelJoinResult pc = ParallelFindRelation(
          Method::kPC, DatasetView{&scenario.r.objects, &r_april},
          DatasetView{&scenario.s.objects, &s_april}, scenario.candidates,
          JoinOptions{.num_threads = threads});
      ASSERT_TRUE(pc.status.ok()) << name << " at grid order " << order;
      ASSERT_EQ(pc.relations, st2.relations)
          << name << " at grid order " << order << ", " << threads
          << " threads";
      decided_by_filter.push_back(pc.stats.decided_by_filter);
    }
  }
  EXPECT_LT(*std::min_element(decided_by_filter.begin(),
                              decided_by_filter.end()),
            *std::max_element(decided_by_filter.begin(),
                              decided_by_filter.end()))
      << name << ": the grid order never changed the filter's decisions";
}

TEST(Metamorphic, GridOrderNeverChangesAnswersOleOpe) {
  ExpectAnswersIndependentOfGridOrder("OLE-OPE", kMaxGridOrder);
}

TEST(Metamorphic, GridOrderNeverChangesAnswersObeOpe) {
  ExpectAnswersIndependentOfGridOrder("OBE-OPE", kMaxGridOrder);
}

TEST(Metamorphic, GridOrderNeverChangesAnswersTcTz) {
  // One TC county covers the whole dataspace, so order 16 would spend
  // seconds on that one object's build; 12 is the default grid.
  ExpectAnswersIndependentOfGridOrder("TC-TZ", 12);
}

using Link = std::tuple<uint32_t, uint32_t, de9im::Relation>;

TEST(Metamorphic, SwappingInputsYieldsTheConverse) {
  for (const char* name : {"OLE-OPE", "OBE-OPE", "TC-TZ"}) {
    ScenarioOptions options;
    options.scale = 0.05;
    options.grid_order = 10;
    const ScenarioData scenario = BuildScenario(name, options);
    const std::vector<CandidatePair> swapped =
        MbrJoin::Join(scenario.s.Mbrs(), scenario.r.Mbrs());
    ASSERT_EQ(swapped.size(), scenario.candidates.size()) << name;

    for (const unsigned threads : {1u, kThreads, Oversubscribed()}) {
      const JoinOptions join{.num_threads = threads};
      const ParallelJoinResult rs =
          ParallelFindRelation(Method::kPC, scenario.RView(),
                               scenario.SView(), scenario.candidates, join);
      const ParallelJoinResult sr = ParallelFindRelation(
          Method::kPC, scenario.SView(), scenario.RView(), swapped, join);
      ASSERT_TRUE(rs.status.ok() && sr.status.ok()) << name;

      std::vector<Link> expected;
      std::vector<Link> converse;
      for (size_t i = 0; i < scenario.candidates.size(); ++i) {
        const CandidatePair& p = scenario.candidates[i];
        expected.emplace_back(p.r_idx, p.s_idx, rs.relations[i]);
        // The swapped join's r side is S, so its pair is (s, r).
        const CandidatePair& q = swapped[i];
        converse.emplace_back(q.s_idx, q.r_idx,
                              de9im::Converse(sr.relations[i]));
      }
      std::sort(expected.begin(), expected.end());
      std::sort(converse.begin(), converse.end());
      ASSERT_EQ(converse, expected) << name << " at " << threads
                                    << " threads";
    }
  }
}

/// Every candidate of R x \p s_part with its relation, s mapped back to its
/// index in the full S through \p s_indices, joined on \p threads.
std::vector<Link> JoinPart(const ScenarioData& scenario,
                           const std::vector<uint32_t>& s_indices,
                           unsigned threads) {
  Dataset part;
  for (const uint32_t s : s_indices) {
    part.objects.push_back(scenario.s.objects[s]);
  }
  const RasterGrid grid(scenario.dataspace, scenario.grid_order);
  const std::vector<AprilApproximation> part_april =
      BuildAprilApproximations(part, grid, kThreads);
  const std::vector<CandidatePair> candidates =
      MbrJoin::Join(scenario.r.Mbrs(), part.Mbrs());
  const ParallelJoinResult result = ParallelFindRelation(
      Method::kPC, scenario.RView(), DatasetView{&part.objects, &part_april},
      candidates, JoinOptions{.num_threads = threads});
  EXPECT_TRUE(result.status.ok());
  std::vector<Link> links;
  for (size_t i = 0; i < candidates.size(); ++i) {
    links.emplace_back(candidates[i].r_idx, s_indices[candidates[i].s_idx],
                       result.relations[i]);
  }
  return links;
}

TEST(Metamorphic, SplittingSNeverChangesTheAnswers) {
  for (const char* name : {"OLE-OPE", "OBE-OPE", "TC-TZ"}) {
    ScenarioOptions options;
    options.scale = kScale;
    const ScenarioData scenario = BuildScenario(name, options);
    ASSERT_FALSE(scenario.candidates.empty()) << name;
    const ParallelJoinResult full = ParallelFindRelation(
        Method::kPC, scenario.RView(), scenario.SView(), scenario.candidates,
        JoinOptions{.num_threads = kThreads});
    ASSERT_TRUE(full.status.ok()) << name;
    std::vector<Link> expected;
    for (size_t i = 0; i < scenario.candidates.size(); ++i) {
      expected.emplace_back(scenario.candidates[i].r_idx,
                            scenario.candidates[i].s_idx, full.relations[i]);
    }
    std::sort(expected.begin(), expected.end());

    const auto n = static_cast<uint32_t>(scenario.s.objects.size());
    std::vector<std::vector<uint32_t>> thirds(3);
    std::vector<std::vector<uint32_t>> odd_even(2);
    for (uint32_t s = 0; s < n; ++s) {
      thirds[uint64_t{s} * 3 / n].push_back(s);
      odd_even[s % 2].push_back(s);
    }
    for (const auto& [split, parts] :
         {std::pair{"thirds", &thirds}, std::pair{"odd/even", &odd_even}}) {
      for (const unsigned threads : SweepThreads()) {
        std::vector<Link> merged;
        for (const std::vector<uint32_t>& part : *parts) {
          const std::vector<Link> links = JoinPart(scenario, part, threads);
          merged.insert(merged.end(), links.begin(), links.end());
        }
        std::sort(merged.begin(), merged.end());
        ASSERT_EQ(merged, expected)
            << name << ", " << split << " of S at " << threads << " threads";
      }
    }
  }
}

/// A map of the plane that only negates or swaps coordinates, so it is
/// exact in IEEE doubles. Polygon's constructor restores ring winding after
/// a reflection.
struct ExactMap {
  const char* name;
  Point (*apply)(Point);
};

constexpr ExactMap kExactMaps[] = {
    {"rotate 90", [](Point p) { return Point{-p.y, p.x}; }},
    {"rotate 180", [](Point p) { return Point{-p.x, -p.y}; }},
    {"rotate 270", [](Point p) { return Point{p.y, -p.x}; }},
    {"reflect x", [](Point p) { return Point{-p.x, p.y}; }},
    {"reflect y", [](Point p) { return Point{p.x, -p.y}; }},
};

Ring MapRing(const Ring& ring, const ExactMap& map) {
  std::vector<Point> vertices;
  vertices.reserve(ring.Size());
  for (const Point& p : ring.Vertices()) vertices.push_back(map.apply(p));
  return Ring(std::move(vertices));
}

Dataset MapDataset(const Dataset& dataset, const ExactMap& map) {
  Dataset out = dataset;
  for (SpatialObject& object : out.objects) {
    std::vector<Ring> holes;
    for (const Ring& hole : object.geometry.Holes()) {
      holes.push_back(MapRing(hole, map));
    }
    object.geometry =
        Polygon(MapRing(object.geometry.Outer(), map), std::move(holes));
  }
  return out;
}

/// Objects of \p mapped whose C list differs from the same object's in
/// \p original.
size_t DifferingConservativeLists(
    const std::vector<AprilApproximation>& original,
    const std::vector<AprilApproximation>& mapped) {
  size_t differing = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    if (!(original[i].conservative == mapped[i].conservative)) ++differing;
  }
  return differing;
}

TEST(Metamorphic, RotationsAndReflectionsNeverChangeTheAnswers) {
  for (const char* name : {"OLE-OPE", "OBE-OPE", "TC-TZ"}) {
    ScenarioOptions options;
    options.scale = 0.05;
    options.grid_order = 10;
    const ScenarioData scenario = BuildScenario(name, options);
    ASSERT_FALSE(scenario.candidates.empty()) << name;
    const ParallelJoinResult expected = ParallelFindRelation(
        Method::kPC, scenario.RView(), scenario.SView(), scenario.candidates,
        JoinOptions{.num_threads = kThreads});
    ASSERT_TRUE(expected.status.ok()) << name;

    for (const ExactMap& map : kExactMaps) {
      const Dataset r = MapDataset(scenario.r, map);
      const Dataset s = MapDataset(scenario.s, map);
      Box dataspace;
      for (const Dataset* d : {&r, &s}) {
        for (const SpatialObject& object : d->objects) {
          dataspace.Expand(object.geometry.Bounds());
        }
      }
      const RasterGrid grid(dataspace, options.grid_order);
      const std::vector<AprilApproximation> r_april =
          BuildAprilApproximations(r, grid, kThreads);
      const std::vector<AprilApproximation> s_april =
          BuildAprilApproximations(s, grid, kThreads);
      EXPECT_GT(DifferingConservativeLists(scenario.r_april, r_april) +
                    DifferingConservativeLists(scenario.s_april, s_april),
                0u)
          << name << ", " << map.name << ": no C list changed";

      const std::vector<CandidatePair> candidates =
          MbrJoin::Join(r.Mbrs(), s.Mbrs());
      ASSERT_EQ(candidates, scenario.candidates) << name << ", " << map.name;
      for (const unsigned threads : {1u, kThreads, Oversubscribed()}) {
        const ParallelJoinResult mapped = ParallelFindRelation(
            Method::kPC, DatasetView{&r.objects, &r_april},
            DatasetView{&s.objects, &s_april}, candidates,
            JoinOptions{.num_threads = threads});
        ASSERT_TRUE(mapped.status.ok()) << name << ", " << map.name;
        ASSERT_EQ(mapped.relations, expected.relations)
            << name << ", " << map.name << " at " << threads << " threads";
      }
    }
  }
}

}  // namespace
}  // namespace stj
