// The four pipelines must return identical relations on identical inputs;
// they differ only in how much work they defer to refinement.

#include "src/topology/pipeline.h"

#include <gtest/gtest.h>

#include "src/datasets/scenarios.h"
#include "src/de9im/relate_engine.h"
#include "tests/test_support.h"

namespace stj {
namespace {

using de9im::Relation;

class PipelineTest : public ::testing::Test {
 protected:
  // Builds index-aligned dataset views over two polygon collections.
  void Setup(std::vector<Polygon> r_polys, std::vector<Polygon> s_polys,
             uint32_t grid_order = 9) {
    for (uint32_t i = 0; i < r_polys.size(); ++i) {
      r_objects_.push_back(SpatialObject{i, std::move(r_polys[i])});
    }
    for (uint32_t i = 0; i < s_polys.size(); ++i) {
      s_objects_.push_back(SpatialObject{i, std::move(s_polys[i])});
    }
    Box space;
    for (const auto& o : r_objects_) space.Expand(o.geometry.Bounds());
    for (const auto& o : s_objects_) space.Expand(o.geometry.Bounds());
    const RasterGrid grid(space, grid_order);
    const AprilBuilder builder(&grid);
    for (const auto& o : r_objects_) r_april_.push_back(builder.Build(o.geometry));
    for (const auto& o : s_objects_) s_april_.push_back(builder.Build(o.geometry));
  }

  DatasetView RView() { return DatasetView{&r_objects_, &r_april_}; }
  DatasetView SView() { return DatasetView{&s_objects_, &s_april_}; }

  std::vector<SpatialObject> r_objects_;
  std::vector<SpatialObject> s_objects_;
  std::vector<AprilApproximation> r_april_;
  std::vector<AprilApproximation> s_april_;
};

TEST_F(PipelineTest, AllMethodsAgreeOnFixtureMatrix) {
  // A matrix of shapes covering every relation.
  std::vector<Polygon> shapes = {
      test::Square(10, 10, 30, 30),
      test::Square(15, 15, 25, 25),            // inside the first
      test::Square(10, 10, 30, 30),            // equal to the first
      test::Square(30, 10, 50, 30),            // meets the first along an edge
      test::Square(25, 25, 45, 45),            // overlaps the first
      test::Square(70, 70, 90, 90),            // disjoint from the first
      test::SquareWithHole(5, 5, 35, 35, 10),  // donut around things
      test::Square(0, 18, 60, 22),             // wide bar (cross MBRs)
  };
  Setup(shapes, shapes);

  Pipeline st2(Method::kST2, RView(), SView());
  Pipeline op2(Method::kOP2, RView(), SView());
  Pipeline april(Method::kApril, RView(), SView());
  Pipeline pc(Method::kPC, RView(), SView());

  for (uint32_t i = 0; i < r_objects_.size(); ++i) {
    for (uint32_t j = 0; j < s_objects_.size(); ++j) {
      const Relation expected = de9im::FindRelationExact(
          r_objects_[i].geometry, s_objects_[j].geometry);
      EXPECT_EQ(st2.FindRelation(i, j), expected) << "ST2 " << i << "," << j;
      EXPECT_EQ(op2.FindRelation(i, j), expected) << "OP2 " << i << "," << j;
      EXPECT_EQ(april.FindRelation(i, j), expected)
          << "APRIL " << i << "," << j;
      EXPECT_EQ(pc.FindRelation(i, j), expected) << "P+C " << i << "," << j;
    }
  }
}

TEST_F(PipelineTest, StatsTrackDecisionsAndRefinements) {
  Setup({test::Square(10, 10, 30, 30)},
        {test::Square(50, 50, 60, 60),    // MBR-disjoint
         test::Square(15, 15, 25, 25),    // deep containment
         test::Square(12, 12, 40, 28)});  // overlap
  Pipeline pc(Method::kPC, RView(), SView());
  for (uint32_t j = 0; j < 3; ++j) pc.FindRelation(0, j);
  const PipelineStats& stats = pc.Stats();
  EXPECT_EQ(stats.pairs, 3u);
  EXPECT_EQ(stats.decided_by_mbr + stats.decided_by_filter + stats.refined,
            3u);
  EXPECT_GE(stats.decided_by_mbr, 1u);  // the disjoint pair

  // ST2 refines everything that passes the MBR filter.
  Pipeline st2(Method::kST2, RView(), SView());
  for (uint32_t j = 0; j < 3; ++j) st2.FindRelation(0, j);
  EXPECT_EQ(st2.Stats().refined, 2u);
  EXPECT_EQ(st2.Stats().decided_by_mbr, 1u);

  // P+C never refines more than ST2.
  EXPECT_LE(stats.refined, st2.Stats().refined);
}

TEST_F(PipelineTest, ResetStatsClearsCounters) {
  Setup({test::Square(0, 0, 1, 1)}, {test::Square(0, 0, 1, 1)});
  Pipeline pc(Method::kPC, RView(), SView());
  pc.FindRelation(0, 0);
  EXPECT_EQ(pc.Stats().pairs, 1u);
  pc.ResetStats();
  EXPECT_EQ(pc.Stats().pairs, 0u);
  EXPECT_EQ(pc.Stats().refined, 0u);
}

TEST_F(PipelineTest, RelateAgreesWithFindRelationSemantics) {
  Setup({test::Square(10, 10, 30, 30), test::Square(15, 15, 25, 25)},
        {test::Square(10, 10, 30, 30), test::Square(15, 15, 25, 25),
         test::Square(28, 28, 50, 50), test::Square(70, 70, 80, 80)});
  Pipeline pc(Method::kPC, RView(), SView());
  Pipeline st2(Method::kST2, RView(), SView());
  for (uint32_t i = 0; i < 2; ++i) {
    for (uint32_t j = 0; j < 4; ++j) {
      const de9im::Matrix matrix = de9im::RelateMatrix(
          r_objects_[i].geometry, s_objects_[j].geometry);
      for (int p = 0; p < de9im::kNumRelations; ++p) {
        const Relation predicate = static_cast<Relation>(p);
        const bool expected = RelationHolds(predicate, matrix);
        EXPECT_EQ(pc.Relate(i, j, predicate), expected)
            << "P+C " << i << "," << j << " " << ToString(predicate);
        EXPECT_EQ(st2.Relate(i, j, predicate), expected)
            << "ST2 " << i << "," << j << " " << ToString(predicate);
      }
    }
  }
}

TEST_F(PipelineTest, StageTimingAccumulatesWhenEnabled) {
  Setup({test::Square(10, 10, 30, 30)}, {test::Square(12, 12, 40, 28)});
  Pipeline timed(Method::kPC, RView(), SView(),
                 PipelineOptions{.time_stages = true});
  timed.FindRelation(0, 0);
  EXPECT_GT(timed.Stats().filter_seconds + timed.Stats().refine_seconds, 0.0);

  Pipeline untimed(Method::kPC, RView(), SView());
  untimed.FindRelation(0, 0);
  EXPECT_EQ(untimed.Stats().filter_seconds, 0.0);
  EXPECT_EQ(untimed.Stats().refine_seconds, 0.0);
}

TEST_F(PipelineTest, MethodNames) {
  EXPECT_STREQ(ToString(Method::kST2), "ST2");
  EXPECT_STREQ(ToString(Method::kOP2), "OP2");
  EXPECT_STREQ(ToString(Method::kApril), "APRIL");
  EXPECT_STREQ(ToString(Method::kPC), "P+C");
}

}  // namespace
}  // namespace stj
