#include "graph/graph.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/random.h"
#include "graph_test_util.h"

namespace mqa {
namespace {

using ::mqa::testing::NeighborList;

/// A fixed graph with uneven degrees (0 to 40), drawn from a seeded Rng.
AdjacencyGraph FixedGraph() {
  Rng rng(77);
  AdjacencyGraph g(300, /*capacity=*/32);  // the longer lists overflow
  for (uint32_t u = 0; u < 300; ++u) {
    std::vector<uint32_t> nbrs;
    const uint32_t degree = static_cast<uint32_t>(rng.NextUint64(41));
    for (uint32_t i = 0; i < degree; ++i) {
      nbrs.push_back(static_cast<uint32_t>(rng.NextUint64(300)));
    }
    g.SetNeighbors(u, nbrs);
  }
  return g;
}

/// FNV-1a (64-bit) over a byte string.
uint64_t BytesHash(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(AdjacencyGraphTest, BasicConstruction) {
  AdjacencyGraph g(3);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 0u);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(NeighborList(g, 0), (std::vector<uint32_t>{1, 2}));
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 1.0);
  EXPECT_EQ(g.MaxDegree(), 2u);
}

TEST(AdjacencyGraphTest, SetNeighborsReplaces) {
  AdjacencyGraph g(2);
  g.AddEdge(0, 1);
  g.SetNeighbors(0, {1, 1, 1});
  EXPECT_EQ(g.neighbors(0).size(), 3u);
  g.SetNeighbors(0, {});
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
    EXPECT_EQ(NeighborList(*loaded, u), NeighborList(g, u));
  }
}

TEST(AdjacencyGraphTest, SaveBytesMatchTheFormat) {
  // Recorded from the vector-of-vectors layout: the on-disk format is
  // the node count, then each node's degree and ids, whatever the layout
  // in memory.
  const AdjacencyGraph g = FixedGraph();
  std::stringstream buf;
  ASSERT_TRUE(g.Save(buf).ok());
  const std::string bytes = buf.str();
  EXPECT_EQ(bytes.size(), 24328u);
  EXPECT_EQ(BytesHash(bytes), 0xefb5d714cd128d1bull)
      << std::hex << BytesHash(bytes);

  auto loaded = AdjacencyGraph::Load(buf);
  ASSERT_TRUE(loaded.ok());
  std::stringstream again;
  ASSERT_TRUE(loaded->Save(again).ok());
  EXPECT_EQ(again.str(), bytes);
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

TEST(AdjacencyGraphTest, LoadRejectsAHugeNodeCountWithoutAllocatingIt) {
  // A header that claims 2^31 nodes, and no lists.
  std::stringstream buf;
  ASSERT_TRUE(AdjacencyGraph().Save(buf).ok());
  std::string blob = buf.str();
  const uint32_t claimed = 1u << 31;
  blob.replace(sizeof(uint32_t), sizeof(claimed),
               reinterpret_cast<const char*>(&claimed), sizeof(claimed));
  std::stringstream in(blob);
  auto loaded = AdjacencyGraph::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(AdjacencyGraphTest, WritesPastTheCapacityKeepEveryEdgeInOrder) {
  AdjacencyGraph g(4, /*capacity=*/2);
  g.SetNeighbors(0, {3, 1, 2, 1});  // longer than the slots
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  g.AddEdge(1, 0);  // the third edge overflows
  g.AddEdge(0, 0);
  EXPECT_EQ(NeighborList(g, 0), (std::vector<uint32_t>{3, 1, 2, 1, 0}));
  EXPECT_EQ(NeighborList(g, 1), (std::vector<uint32_t>{2, 3, 0}));
  EXPECT_EQ(g.num_edges(), 8u);
  EXPECT_EQ(g.MaxDegree(), 5u);

  // An overflowed list that shrinks moves back into its slots.
  g.SetNeighbors(0, {2});
  EXPECT_EQ(NeighborList(g, 0), (std::vector<uint32_t>{2}));
  const uint32_t added = g.AddNode();
  g.SetNeighbors(added, {0, 1, 2});
  EXPECT_EQ(NeighborList(g, added), (std::vector<uint32_t>{0, 1, 2}));

  // Growing the capacity keeps every list; Save writes the same bytes.
  std::stringstream before;
  ASSERT_TRUE(g.Save(before).ok());
  g.Reserve(4);
  EXPECT_EQ(g.capacity(), 4u);
  EXPECT_EQ(NeighborList(g, 1), (std::vector<uint32_t>{2, 3, 0}));
  EXPECT_EQ(NeighborList(g, added), (std::vector<uint32_t>{0, 1, 2}));
  std::stringstream after;
  ASSERT_TRUE(g.Save(after).ok());
  EXPECT_EQ(after.str(), before.str());

  // A loaded hub keeps its whole list without sizing every node's slots
  // for it.
  AdjacencyGraph star(200, 1);
  std::vector<uint32_t> all;
  for (uint32_t v = 1; v < 200; ++v) {
    all.push_back(v);
    star.SetNeighbors(v, {0});
  }
  star.SetNeighbors(0, all);
  std::stringstream saved;
  ASSERT_TRUE(star.Save(saved).ok());
  auto loaded = AdjacencyGraph::Load(saved);
  ASSERT_TRUE(loaded.ok());
  EXPECT_LT(loaded->capacity(), 199u);
  EXPECT_EQ(NeighborList(*loaded, 0), all);
  EXPECT_EQ(NeighborList(*loaded, 7), (std::vector<uint32_t>{0}));
}

TEST(AdjacencyGraphTest, MemoryBytesCountsEdges) {
  AdjacencyGraph g(2);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  EXPECT_EQ(g.MemoryBytes(), 2 * sizeof(uint32_t));
}

}  // namespace
}  // namespace mqa
