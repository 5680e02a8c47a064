#include "graph/position_io.h"

#include "graph/graph.h"
#include "graph_fixtures.h"

#include <gtest/gtest.h>

#include <sstream>

namespace cbtc::graph {
namespace {

TEST(PositionIo, RoundTrip) {
  const std::vector<geom::vec2> pts{{1.5, -2.25}, {0.0, 0.0}, {1500.0, 733.125}};
  std::stringstream ss;
  write_positions_csv(ss, pts);
  const auto back = read_positions_csv(ss);
  ASSERT_EQ(back.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_DOUBLE_EQ(back[i].x, pts[i].x);
    EXPECT_DOUBLE_EQ(back[i].y, pts[i].y);
  }
}

TEST(PositionIo, HeaderOptional) {
  std::istringstream with_header("x,y\n1,2\n3,4\n");
  EXPECT_EQ(read_positions_csv(with_header).size(), 2u);
  std::istringstream without("1,2\n3,4\n");
  EXPECT_EQ(read_positions_csv(without).size(), 2u);
}

TEST(PositionIo, SkipsCommentsAndBlanks) {
  std::istringstream in("# deployment A\n\n1,2\n\n# trailing comment\n3,4\n");
  const auto pts = read_positions_csv(in);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[1].x, 3.0);
}

TEST(PositionIo, WhitespaceTolerant) {
  std::istringstream in("  1.5 , 2.5  \r\n");
  const auto pts = read_positions_csv(in);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_DOUBLE_EQ(pts[0].x, 1.5);
  EXPECT_DOUBLE_EQ(pts[0].y, 2.5);
}

TEST(PositionIo, MalformedRowThrowsWithLineNumber) {
  std::istringstream in("1,2\nnot-a-row\n");
  try {
    (void)read_positions_csv(in);
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(PositionIo, MissingCommaThrows) {
  std::istringstream in("12\n");
  EXPECT_THROW(read_positions_csv(in), std::runtime_error);
}

TEST(PositionIo, BadNumberThrows) {
  std::istringstream in("1,abc\n");
  EXPECT_THROW(read_positions_csv(in), std::runtime_error);
}

TEST(PositionIo, FileRoundTripAndErrors) {
  const std::string path = ::testing::TempDir() + "/cbtc_positions.csv";
  const std::vector<geom::vec2> pts{{10.0, 20.0}};
  save_positions_csv(path, pts);
  const auto back = load_positions_csv(path);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_DOUBLE_EQ(back[0].x, 10.0);
  EXPECT_THROW(load_positions_csv("/no/such/dir/file.csv"), std::runtime_error);
  EXPECT_THROW(save_positions_csv("/no/such/dir/file.csv", pts), std::runtime_error);
}

TEST(PositionIo, EmptyInput) {
  std::istringstream in("");
  EXPECT_TRUE(read_positions_csv(in).empty());
}

// --------------------------------------------------- induced subgraph

TEST(InducedSubgraph, MasksEdges) {
  const undirected_graph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto sub = g.induced({true, false, true, true});
  EXPECT_EQ(sub.num_nodes(), 4u);
  EXPECT_EQ(sub.num_edges(), 1u);
  EXPECT_TRUE(sub.has_edge(2, 3));
  EXPECT_FALSE(sub.has_edge(0, 1));
}

TEST(InducedSubgraph, FullMaskIsIdentity) {
  const undirected_graph g = make_graph(3, {{0, 2}});
  EXPECT_EQ(g.induced({true, true, true}), g);
}

TEST(InducedSubgraph, ShortMaskDropsTail) {
  const undirected_graph g = make_graph(3, {{0, 1}, {1, 2}});
  const auto sub = g.induced({true, true});  // node 2 implicitly masked out
  EXPECT_EQ(sub.num_edges(), 1u);
  EXPECT_TRUE(sub.has_edge(0, 1));
}

TEST(InducedSubgraph, EmptyMask) {
  const undirected_graph g = make_graph(2, {{0, 1}});
  EXPECT_EQ(g.induced({}).num_edges(), 0u);
}

}  // namespace
}  // namespace cbtc::graph
