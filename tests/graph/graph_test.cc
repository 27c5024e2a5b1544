#include "graph/graph.h"

#include <gtest/gtest.h>

#include <sstream>

namespace mqa {
namespace {

TEST(AdjacencyGraphTest, BasicConstruction) {
  AdjacencyGraph g(3);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 0u);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.neighbors(0), (std::vector<uint32_t>{1, 2}));
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 1.0);
  EXPECT_EQ(g.MaxDegree(), 2u);
}

TEST(AdjacencyGraphTest, SetNeighborsReplaces) {
  AdjacencyGraph g(2);
  g.AddEdge(0, 1);
  g.SetNeighbors(0, {1, 1, 1});
  EXPECT_EQ(g.neighbors(0).size(), 3u);
  g.mutable_neighbors(0)->clear();
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(AdjacencyGraphTest, ReachabilityAndConnectivity) {
  AdjacencyGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_EQ(g.ReachableFrom(0), 3u);  // node 3 unreachable
  EXPECT_FALSE(g.IsConnectedFrom(0));
  g.AddEdge(2, 3);
  EXPECT_TRUE(g.IsConnectedFrom(0));
  // Directed: from 3 nothing is reachable but itself.
  EXPECT_EQ(g.ReachableFrom(3), 1u);
  EXPECT_EQ(g.ReachableFrom(99), 0u);  // out of range start
}

TEST(AdjacencyGraphTest, EmptyGraph) {
  AdjacencyGraph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 0.0);
  EXPECT_EQ(g.MaxDegree(), 0u);
}

TEST(AdjacencyGraphTest, SaveLoadRoundTrip) {
  AdjacencyGraph g(5);
  g.SetNeighbors(0, {1, 2, 3});
  g.SetNeighbors(3, {4});
  g.SetNeighbors(4, {0});
  std::stringstream buf;
  ASSERT_TRUE(g.Save(buf).ok());
  auto loaded = AdjacencyGraph::Load(buf);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_nodes(), 5u);
  for (uint32_t u = 0; u < 5; ++u) {
    EXPECT_EQ(loaded->neighbors(u), g.neighbors(u));
  }
}

TEST(AdjacencyGraphTest, LoadRejectsGarbage) {
  std::stringstream buf("definitely not a graph");
  EXPECT_FALSE(AdjacencyGraph::Load(buf).ok());
}

TEST(AdjacencyGraphTest, LoadRejectsOutOfRangeNeighborIds) {
  AdjacencyGraph g(80);
  for (uint32_t u = 0; u < 80; ++u) g.SetNeighbors(u, {(u + 1) % 80});
  g.SetNeighbors(0, {1, 1u << 30});
  std::stringstream buf;
  ASSERT_TRUE(g.Save(buf).ok());
  auto loaded = AdjacencyGraph::Load(buf);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);

  // One past the last node is already out of range.
  g.SetNeighbors(5, {80});
  g.SetNeighbors(0, {1});
  std::stringstream edge;
  ASSERT_TRUE(g.Save(edge).ok());
  EXPECT_FALSE(AdjacencyGraph::Load(edge).ok());
}

TEST(AdjacencyGraphTest, MemoryBytesCountsEdges) {
  AdjacencyGraph g(2);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  EXPECT_EQ(g.MemoryBytes(), 2 * sizeof(uint32_t));
}

}  // namespace
}  // namespace mqa
