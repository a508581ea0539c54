#include "src/topology/link_writer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include "tests/test_support.h"

namespace stj {
namespace {

using de9im::Relation;

TEST(LinkWriter, GeoSparqlPropertyMapping) {
  EXPECT_STREQ(GeoSparqlProperty(Relation::kEquals), "geo:sfEquals");
  EXPECT_STREQ(GeoSparqlProperty(Relation::kInside), "geo:sfWithin");
  EXPECT_STREQ(GeoSparqlProperty(Relation::kCoveredBy), "geo:sfWithin");
  EXPECT_STREQ(GeoSparqlProperty(Relation::kContains), "geo:sfContains");
  EXPECT_STREQ(GeoSparqlProperty(Relation::kCovers), "geo:sfContains");
  EXPECT_STREQ(GeoSparqlProperty(Relation::kMeets), "geo:sfTouches");
  EXPECT_STREQ(GeoSparqlProperty(Relation::kIntersects), "geo:sfIntersects");
}

TEST(LinkWriter, WritesTriplesAndSkipsDisjoint) {
  const std::string path =
      test::TempPath("links_test.nt");
  const std::vector<TopologyLink> links = {
      {CandidatePair{1, 2}, Relation::kInside},
      {CandidatePair{3, 4}, Relation::kDisjoint},  // skipped
      {CandidatePair{5, 6}, Relation::kMeets},
  };
  ASSERT_TRUE(WriteNTriples(path, "http://ex.org/lake/", "http://ex.org/park/",
                            links));
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  const std::string text = content.str();
  EXPECT_NE(text.find("@prefix geo:"), std::string::npos);
  EXPECT_NE(
      text.find(
          "<http://ex.org/lake/1> geo:sfWithin <http://ex.org/park/2> ."),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "<http://ex.org/lake/5> geo:sfTouches <http://ex.org/park/6> ."),
      std::string::npos);
  EXPECT_EQ(text.find("lake/3"), std::string::npos);
  std::remove(path.c_str());
}

TEST(LinkWriter, FailsOnUnwritablePath) {
  EXPECT_FALSE(WriteNTriples("/nonexistent-dir/links.nt", "a/", "b/", {}));
}

}  // namespace
}  // namespace stj
