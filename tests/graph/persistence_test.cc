#include <gtest/gtest.h>

#include <sstream>

#include "graph/pipeline.h"
#include "graph_test_util.h"

namespace mqa {
namespace {

using ::mqa::testing::MakeClusteredStore;

TEST(GraphIndexPersistenceTest, SaveLoadPreservesSearchBehaviour) {
  VectorStore store = MakeClusteredStore(300, 8, 4, 51);
  GraphBuildConfig config;
  config.algorithm = "mqa-hybrid";
  config.max_degree = 12;
  auto built = BuildGraphIndex(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(built.ok());

  std::stringstream blob;
  ASSERT_TRUE((*built)->Save(blob).ok());

  auto loaded = GraphIndex::Load(
      blob, std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->name(), (*built)->name());
  EXPECT_EQ((*loaded)->entry_points(), (*built)->entry_points());
  EXPECT_EQ((*loaded)->size(), (*built)->size());

  SearchParams params;
  params.k = 10;
  for (uint32_t q : {0u, 50u, 299u}) {
    const Vector query = store.Row(q);
    auto a = (*built)->Search(query.data(), params, nullptr);
    auto b = (*loaded)->Search(query.data(), params, nullptr);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
  }
}

TEST(GraphIndexPersistenceTest, LoadRejectsGarbageAndSizeMismatch) {
  std::stringstream garbage("nonsense");
  EXPECT_FALSE(GraphIndex::Load(garbage, nullptr).ok());

  VectorStore store = MakeClusteredStore(100, 8, 4, 52);
  GraphBuildConfig config;
  config.algorithm = "kgraph";
  auto built = BuildGraphIndex(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(built.ok());
  std::stringstream blob;
  ASSERT_TRUE((*built)->Save(blob).ok());

  VectorStore smaller = MakeClusteredStore(50, 8, 4, 53);
  EXPECT_FALSE(
      GraphIndex::Load(blob, std::make_unique<FlatDistanceComputer>(
                                 &smaller, Metric::kL2))
          .ok());
}

TEST(GraphIndexPersistenceTest, LoadRejectsOutOfRangeEntryPoints) {
  VectorStore store = MakeClusteredStore(40, 8, 4, 55);
  AdjacencyGraph graph(40);
  for (uint32_t u = 0; u < 40; ++u) graph.SetNeighbors(u, {(u + 1) % 40});
  GraphIndex index("mqa-hybrid", std::move(graph), nullptr, {3, 40});
  std::stringstream blob;
  ASSERT_TRUE(index.Save(blob).ok());
  auto loaded = GraphIndex::Load(
      blob, std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(GraphIndexPersistenceTest, TruncatedBlobFails) {
  VectorStore store = MakeClusteredStore(80, 8, 4, 54);
  GraphBuildConfig config;
  config.algorithm = "kgraph";
  auto built = BuildGraphIndex(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(built.ok());
  std::stringstream blob;
  ASSERT_TRUE((*built)->Save(blob).ok());
  std::string data = blob.str();
  data.resize(data.size() - 6);
  std::stringstream cut(data);
  EXPECT_FALSE(
      GraphIndex::Load(cut, std::make_unique<FlatDistanceComputer>(
                                &store, Metric::kL2))
          .ok());
}

// Structural invariants every built navigation graph must satisfy.
class GraphInvariantsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GraphInvariantsTest, NoSelfLoopsNoDuplicatesIdsInRange) {
  VectorStore store = MakeClusteredStore(400, 8, 8, 55);
  GraphBuildConfig config;
  config.algorithm = GetParam();
  config.max_degree = 12;
  auto built = BuildGraphIndex(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(built.ok()) << GetParam();
  const AdjacencyGraph& graph = (*built)->graph();
  for (uint32_t u = 0; u < graph.num_nodes(); ++u) {
    std::set<uint32_t> seen;
    for (uint32_t v : graph.neighbors(u)) {
      EXPECT_NE(v, u) << "self loop at " << u;
      EXPECT_LT(v, graph.num_nodes());
      EXPECT_TRUE(seen.insert(v).second) << "duplicate edge " << u << "->"
                                         << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, GraphInvariantsTest,
                         ::testing::Values("kgraph", "nsg", "vamana",
                                           "mqa-hybrid"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string name = i.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace mqa
