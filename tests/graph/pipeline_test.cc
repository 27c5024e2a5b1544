#include "graph/pipeline.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/metrics.h"
#include "graph/nn_descent.h"
#include "graph_test_util.h"

namespace mqa {
namespace {

using ::mqa::testing::ExactKnn;
using ::mqa::testing::MakeClusteredStore;
using ::mqa::testing::NeighborList;
using ::mqa::testing::Recall;

TEST(RobustPruneTest, KeepsClosestAndDiversifies) {
  // 1D points: node at 0; candidates at 1, 1.1, 1.2 (one direction) and -5
  // (the other). Distances are squared L2, as used by every builder.
  VectorSchema schema;
  schema.dims = {1};
  VectorStore store(schema);
  for (float x : {0.f, 1.f, 1.1f, 1.2f, -5.f}) {
    ASSERT_TRUE(store.Add({x}).ok());
  }
  FlatDistanceComputer dist(&store, Metric::kL2);
  std::vector<Neighbor> candidates;
  for (uint32_t id = 1; id < 5; ++id) {
    candidates.push_back({dist.DistanceBetween(0, id), id});
  }
  // alpha = 1 (MRNG rule): 1.1 and 1.2 are occluded by 1 (they are closer
  // to 1 than to the node); -5 lies on the other side and survives
  // (d(1,-5)^2 = 36 > d(0,-5)^2 = 25).
  const auto selected = RobustPrune(0, candidates, 1.0f, 8, &dist);
  EXPECT_EQ(selected, (std::vector<uint32_t>{1, 4}));
}

TEST(RobustPruneTest, RespectsMaxDegreeAndRemovesSelfDuplicates) {
  VectorSchema schema;
  schema.dims = {1};
  VectorStore store(schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Add({static_cast<float>(i * i)}).ok());
  }
  FlatDistanceComputer dist(&store, Metric::kL2);
  std::vector<Neighbor> candidates;
  for (uint32_t id = 0; id < 10; ++id) {
    candidates.push_back({dist.DistanceBetween(3, id), id});
    candidates.push_back({dist.DistanceBetween(3, id), id});  // duplicate
  }
  const auto selected = RobustPrune(3, candidates, 1.2f, 3, &dist);
  EXPECT_LE(selected.size(), 3u);
  for (uint32_t id : selected) EXPECT_NE(id, 3u);
  // No duplicates.
  std::set<uint32_t> unique(selected.begin(), selected.end());
  EXPECT_EQ(unique.size(), selected.size());
}

TEST(RobustPruneTest, AnIdOfferedTwiceCountsAtItsSmallerDistance) {
  // 1D points: node at 0, then 1, 2 and -3. Id 2 is offered at its true
  // distance (4) and, first, at a smaller one (0.5). At 0.5 it is the
  // nearest candidate: selected first, it occludes id 1 (d(2,1) = 1 <= 1)
  // but not id 3 (d(2,3) = 25 > 9). Kept at 4, id 1 would be selected
  // first and occlude it instead.
  VectorSchema schema;
  schema.dims = {1};
  VectorStore store(schema);
  for (float x : {0.f, 1.f, 2.f, -3.f}) {
    ASSERT_TRUE(store.Add({x}).ok());
  }
  FlatDistanceComputer dist(&store, Metric::kL2);
  const std::vector<Neighbor> candidates = {
      {4.0f, 2}, {1.0f, 1}, {9.0f, 3}, {0.5f, 2}};
  EXPECT_EQ(RobustPrune(0, candidates, 1.0f, 8, &dist),
            (std::vector<uint32_t>{2, 3}));
}

TEST(RobustPruneTest, LargerAlphaKeepsMoreNeighbors) {
  VectorStore store = MakeClusteredStore(100, 8, 4, 12);
  FlatDistanceComputer dist(&store, Metric::kL2);
  std::vector<Neighbor> candidates;
  for (uint32_t id = 1; id < 100; ++id) {
    candidates.push_back({dist.DistanceBetween(0, id), id});
  }
  const auto tight = RobustPrune(0, candidates, 1.0f, 64, &dist);
  const auto loose = RobustPrune(0, candidates, 1.5f, 64, &dist);
  EXPECT_GE(loose.size(), tight.size());
}

TEST(NNDescentTest, ValidatesInput) {
  VectorSchema schema;
  schema.dims = {2};
  VectorStore empty(schema);
  FlatDistanceComputer dist(&empty, Metric::kL2);
  Rng rng(1);
  EXPECT_FALSE(BuildNNDescentGraph(&dist, 8, 4, &rng).ok());
}

TEST(NNDescentTest, ApproximatesExactKnnGraph) {
  VectorStore store = MakeClusteredStore(400, 8, 4, 13);
  FlatDistanceComputer dist(&store, Metric::kL2);
  Rng rng(2);
  auto graph = BuildNNDescentGraph(&dist, 10, 8, &rng);
  ASSERT_TRUE(graph.ok());
  ASSERT_EQ(graph->num_nodes(), 400u);
  // Compare each node's list against the true 10-NN.
  double recall_sum = 0;
  for (uint32_t u = 0; u < 100; ++u) {  // sample
    const auto exact = ExactKnn(store, store.Row(u), 11);  // incl. self
    std::vector<Neighbor> got;
    for (uint32_t v : graph->neighbors(u)) got.push_back({0.0f, v});
    std::vector<Neighbor> expected;
    for (const auto& e : exact) {
      if (e.id != u) expected.push_back(e);
    }
    expected.resize(10);
    recall_sum += Recall(got, expected);
  }
  EXPECT_GT(recall_sum / 100, 0.9);
}

TEST(NNDescentTest, TinyStoreHandled) {
  VectorSchema schema;
  schema.dims = {2};
  VectorStore store(schema);
  ASSERT_TRUE(store.Add({0, 0}).ok());
  ASSERT_TRUE(store.Add({1, 1}).ok());
  FlatDistanceComputer dist(&store, Metric::kL2);
  Rng rng(3);
  auto graph = BuildNNDescentGraph(&dist, 8, 4, &rng);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 2u);
  EXPECT_EQ(NeighborList(*graph, 0), (std::vector<uint32_t>{1}));
}

TEST(BuildGraphIndexTest, ValidatesConfig) {
  VectorStore store = MakeClusteredStore(50, 4, 2, 14);
  GraphBuildConfig config;
  config.algorithm = "no-such-algo";
  auto dist = std::make_unique<FlatDistanceComputer>(&store, Metric::kL2);
  EXPECT_FALSE(BuildGraphIndex(config, &store, std::move(dist)).ok());

  config.algorithm = "nsg";
  config.max_degree = 0;
  dist = std::make_unique<FlatDistanceComputer>(&store, Metric::kL2);
  EXPECT_FALSE(BuildGraphIndex(config, &store, std::move(dist)).ok());

  config.max_degree = 8;
  EXPECT_FALSE(BuildGraphIndex(config, &store, nullptr).ok());
}

TEST(BuildGraphIndexTest, RejectsAlphaAndBeamOutOfRange) {
  // A NaN alpha switches occlusion off (degree = max_degree everywhere);
  // alpha = -1 occludes almost every candidate and connectivity repair
  // then hangs the graph off one hub.
  VectorStore store = MakeClusteredStore(200, 8, 4, 16);
  auto build = [&store](const GraphBuildConfig& config) {
    return BuildGraphIndex(
        config, &store,
        std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  };
  GraphBuildConfig config;
  config.max_degree = 8;
  for (float alpha : {std::numeric_limits<float>::quiet_NaN(), -1.0f, 0.99f,
                      std::numeric_limits<float>::infinity()}) {
    config.alpha = alpha;
    auto index = build(config);
    ASSERT_FALSE(index.ok()) << "alpha " << alpha;
    EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument);
  }
  config.alpha = 1.0f;
  config.build_beam = 0;
  EXPECT_FALSE(build(config).ok());
  config.build_beam = 16;
  EXPECT_TRUE(build(config).ok());
}

TEST(BuildGraphIndexTest, InsertRejectsAlphaAndBeamOutOfRange) {
  VectorStore full = MakeClusteredStore(101, 8, 4, 17);
  VectorStore store(full.schema());
  for (uint32_t i = 0; i < 100; ++i) ASSERT_TRUE(store.Add(full.Row(i)).ok());
  GraphBuildConfig config;
  config.max_degree = 8;
  auto index = BuildGraphIndex(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(store.Add(full.Row(100)).ok());
  GraphBuildConfig bad = config;
  bad.alpha = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(InsertIntoGraphIndex(index->get(), &store, 100, bad).ok());
  bad = config;
  bad.alpha = -1.0f;
  EXPECT_FALSE(InsertIntoGraphIndex(index->get(), &store, 100, bad).ok());
  bad = config;
  bad.build_beam = 0;
  EXPECT_FALSE(InsertIntoGraphIndex(index->get(), &store, 100, bad).ok());
  bad = config;
  bad.max_degree = 0;
  EXPECT_FALSE(InsertIntoGraphIndex(index->get(), &store, 100, bad).ok());
  // The rejected calls left the graph as it was.
  EXPECT_EQ((*index)->size(), 100u);
  EXPECT_TRUE(InsertIntoGraphIndex(index->get(), &store, 100, config).ok());
}

struct AlgoParam {
  const char* algorithm;
  double min_recall;
};

class PipelineAlgorithmTest : public ::testing::TestWithParam<AlgoParam> {};

TEST_P(PipelineAlgorithmTest, BuildsSearchableIndexWithGoodRecall) {
  const AlgoParam param = GetParam();
  std::vector<Vector> queries;
  VectorStore store = MakeClusteredStore(1000, 8, 8, 15, &queries, 20);
  GraphBuildConfig config;
  config.algorithm = param.algorithm;
  config.max_degree = 16;
  config.build_beam = 48;
  config.nn_descent_k = 16;
  BuildReport report;
  auto index = BuildGraphIndex(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2), &report);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  EXPECT_EQ(report.algorithm, param.algorithm);
  EXPECT_GT(report.total_seconds, 0.0);
  EXPECT_FALSE(report.stages.empty());
  EXPECT_GT(report.avg_degree, 1.0);

  SearchParams params;
  params.k = 10;
  params.beam_width = 64;
  double recall_sum = 0;
  for (const Vector& q : queries) {
    auto got = (*index)->Search(q.data(), params, nullptr);
    ASSERT_TRUE(got.ok());
    recall_sum += Recall(*got, ExactKnn(store, q, 10));
  }
  EXPECT_GE(recall_sum / queries.size(), param.min_recall)
      << param.algorithm;
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, PipelineAlgorithmTest,
    ::testing::Values(AlgoParam{"kgraph", 0.60}, AlgoParam{"nsg", 0.90},
                      AlgoParam{"vamana", 0.90},
                      AlgoParam{"mqa-hybrid", 0.90}),
    [](const ::testing::TestParamInfo<AlgoParam>& info) {
      std::string name = info.param.algorithm;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(BuildGraphIndexTest, RefinedGraphsAreConnectedAndDegreeBounded) {
  VectorStore store = MakeClusteredStore(500, 8, 16, 16);
  for (const char* algo : {"nsg", "vamana", "mqa-hybrid"}) {
    GraphBuildConfig config;
    config.algorithm = algo;
    config.max_degree = 12;
    BuildReport report;
    auto index = BuildGraphIndex(
        config, &store,
        std::make_unique<FlatDistanceComputer>(&store, Metric::kL2),
        &report);
    ASSERT_TRUE(index.ok()) << algo;
    EXPECT_TRUE(report.connected) << algo;
    // Connectivity repair may push a few nodes slightly over max_degree.
    EXPECT_LE((*index)->graph().MaxDegree(), config.max_degree + 4) << algo;
  }
}

TEST(BuildGraphIndexTest, StageNamesFollowThePipelineDecomposition) {
  VectorStore store = MakeClusteredStore(200, 4, 4, 17);
  GraphBuildConfig config;
  config.algorithm = "mqa-hybrid";
  BuildReport report;
  auto index = BuildGraphIndex(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2), &report);
  ASSERT_TRUE(index.ok());
  std::vector<std::string> names;
  for (const auto& stage : report.stages) names.push_back(stage.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"initialization", "seed_acquisition",
                                      "refinement", "connectivity"}));
}

TEST(BuildGraphIndexTest, EachStageRecordsIntoItsOwnHistogram) {
  VectorStore store = MakeClusteredStore(200, 4, 4, 19);
  MetricsRegistry& metrics = MetricsRegistry::Global();
  Histogram* init = metrics.GetHistogram("dag/stage_ms/initialization");
  Histogram* refine = metrics.GetHistogram("dag/stage_ms/refinement");
  Histogram* pooled = metrics.GetHistogram("dag/stage_ms");
  const uint64_t init_before = init->count();
  const uint64_t refine_before = refine->count();
  const uint64_t pooled_before = pooled->count();
  BuildReport report;
  auto index = BuildGraphIndex(
      GraphBuildConfig{}, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2), &report);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(init->count() - init_before, 1u);
  EXPECT_EQ(refine->count() - refine_before, 1u);
  // The pooled histogram still takes every stage.
  EXPECT_EQ(pooled->count() - pooled_before, report.stages.size());
}

TEST(BuildGraphIndexTest, DeterministicGivenSeed) {
  VectorStore store = MakeClusteredStore(300, 8, 4, 18);
  GraphBuildConfig config;
  config.algorithm = "vamana";
  config.seed = 99;
  auto a = BuildGraphIndex(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  auto b = BuildGraphIndex(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(a.ok() && b.ok());
  for (uint32_t u = 0; u < 300; ++u) {
    EXPECT_EQ(NeighborList((*a)->graph(), u), NeighborList((*b)->graph(), u));
  }
}

TEST(GraphAlgorithmsTest, ListsFourPipelineAlgorithms) {
  const auto algos = GraphAlgorithms();
  EXPECT_EQ(algos.size(), 4u);
}

}  // namespace
}  // namespace mqa
