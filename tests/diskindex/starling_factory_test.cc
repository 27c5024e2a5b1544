// The "starling" algorithm through the unified index factory: the whole
// retrieval stack running disk-resident.

#include <gtest/gtest.h>

#include "graph/index_factory.h"
#include "../graph/graph_test_util.h"

namespace mqa {
namespace {

using ::mqa::testing::ExactKnn;
using ::mqa::testing::MakeClusteredStore;
using ::mqa::testing::Recall;

TEST(StarlingFactoryTest, BuildsFromFlatDistance) {
  std::vector<Vector> queries;
  VectorStore store = MakeClusteredStore(500, 8, 4, 61, &queries, 5);
  IndexConfig config;
  config.algorithm = "starling";
  config.graph.max_degree = 12;
  BuildReport report;
  auto index = CreateIndex(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2), &report);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(report.algorithm, "starling");
  EXPECT_EQ((*index)->name(), "disk-bfs");

  SearchParams params;
  params.k = 10;
  params.beam_width = 64;
  double recall = 0;
  for (const Vector& q : queries) {
    auto r = (*index)->Search(q.data(), params, nullptr);
    ASSERT_TRUE(r.ok());
    recall += Recall(*r, ExactKnn(store, q, 10));
  }
  EXPECT_GE(recall / queries.size(), 0.85);

  // I/O actually happened.
  auto* disk = dynamic_cast<DiskGraphIndex*>(index->get());
  ASSERT_NE(disk, nullptr);
  EXPECT_GT(disk->io_stats().page_reads, 0u);
}

TEST(StarlingFactoryTest, BuildsFromMultiVectorDistanceAndReweights) {
  VectorSchema schema;
  schema.dims = {4, 4};
  VectorStore store(schema);
  Rng rng(62);
  for (int i = 0; i < 300; ++i) {
    Vector v(8);
    for (auto& x : v) x = static_cast<float>(rng.Gaussian());
    ASSERT_TRUE(store.Add(v).ok());
  }
  auto wd = WeightedMultiDistance::Create(schema, {1.5f, 0.5f});
  ASSERT_TRUE(wd.ok());
  IndexConfig config;
  config.algorithm = "starling";
  config.graph.max_degree = 10;
  auto index = CreateIndex(
      config, &store,
      std::make_unique<MultiVectorDistanceComputer>(&store, *wd));
  ASSERT_TRUE(index.ok());
  auto* disk = dynamic_cast<DiskGraphIndex*>(index->get());
  ASSERT_NE(disk, nullptr);
  // The on-disk distance carries the source weights.
  EXPECT_EQ(disk->weighted_distance().weights(),
            (std::vector<float>{1.5f, 0.5f}));
  // A query reweights through its own distance, which scores every
  // result and leaves the index's default weights as they were.
  auto reweighted = WeightedMultiDistance::Create(schema, {0.0f, 2.0f});
  ASSERT_TRUE(reweighted.ok());
  const Vector q = store.Row(0);
  SearchParams params;
  params.k = 5;
  params.distance = &*reweighted;
  auto r = (*index)->Search(q.data(), params, nullptr);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 5u);
  for (const Neighbor& n : *r) {
    EXPECT_EQ(n.distance, reweighted->Exact(q.data(), store.data(n.id)));
  }
  EXPECT_EQ(disk->weighted_distance().weights(),
            (std::vector<float>{1.5f, 0.5f}));
}

TEST(StarlingFactoryTest, RespectsDiskConfig) {
  VectorStore store = MakeClusteredStore(200, 8, 4, 63);
  IndexConfig config;
  config.algorithm = "starling";
  config.graph.max_degree = 8;
  config.disk.layout = "id";
  config.disk.page_size = 2048;
  auto index = CreateIndex(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->name(), "disk-id");
}

}  // namespace
}  // namespace mqa
