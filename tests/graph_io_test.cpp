#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "graph/graph.h"
#include "graph_fixtures.h"

namespace cbtc::graph {
namespace {

struct fixture {
  std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {50, 80}};
  undirected_graph g = make_graph(3, {{0, 1}, {1, 2}});
  geom::bbox region = geom::bbox::rect(100.0, 100.0);
};

TEST(WriteSvg, WellFormedDocument) {
  fixture f;
  std::ostringstream os;
  write_svg(os, f.g, f.pts, f.region);
  const std::string s = os.str();
  EXPECT_NE(s.find("<svg"), std::string::npos);
  EXPECT_NE(s.find("</svg>"), std::string::npos);
  // 2 edges and 3 nodes.
  std::size_t lines = 0, circles = 0, pos = 0;
  while ((pos = s.find("<line", pos)) != std::string::npos) { ++lines; pos += 5; }
  pos = 0;
  while ((pos = s.find("<circle", pos)) != std::string::npos) { ++circles; pos += 7; }
  EXPECT_EQ(lines, 2u);
  EXPECT_EQ(circles, 3u);
}

TEST(WriteSvg, TitleAndLabels) {
  fixture f;
  std::ostringstream os;
  svg_style style;
  style.title = "basic algorithm";
  style.node_labels = true;
  write_svg(os, f.g, f.pts, f.region, style);
  EXPECT_NE(os.str().find("basic algorithm"), std::string::npos);
  EXPECT_NE(os.str().find(">2<"), std::string::npos);  // node id label
}

TEST(WriteSvg, EmptyGraph) {
  std::ostringstream os;
  write_svg(os, undirected_graph(0), {}, geom::bbox::rect(10, 10));
  EXPECT_NE(os.str().find("</svg>"), std::string::npos);
}

TEST(WriteDot, ContainsNodesAndEdges) {
  fixture f;
  std::ostringstream os;
  write_dot(os, f.g, f.pts, "test_graph");
  const std::string s = os.str();
  EXPECT_NE(s.find("graph test_graph {"), std::string::npos);
  EXPECT_NE(s.find("n0 -- n1;"), std::string::npos);
  EXPECT_NE(s.find("n1 -- n2;"), std::string::npos);
  EXPECT_EQ(s.find("n0 -- n2;"), std::string::npos);
  EXPECT_NE(s.find("pos=\"100,0!\""), std::string::npos);
}

TEST(WriteEdgeCsv, RowsWithLengths) {
  fixture f;
  std::ostringstream os;
  write_edge_csv(os, f.g, f.pts);
  const std::string s = os.str();
  EXPECT_NE(s.find("u,v,length\n"), std::string::npos);
  EXPECT_NE(s.find("0,1,100\n"), std::string::npos);
}

TEST(SaveSvg, WritesFileAndThrowsOnBadPath) {
  fixture f;
  const std::string path = ::testing::TempDir() + "/cbtc_io_test.svg";
  save_svg(path, f.g, f.pts, f.region);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  EXPECT_THROW(save_svg("/nonexistent_dir_xyz/out.svg", f.g, f.pts, f.region), std::runtime_error);
}

}  // namespace
}  // namespace cbtc::graph
