#include "graph/search.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "graph/pipeline.h"
#include "graph_test_util.h"
#include "vector/multi_distance.h"

namespace mqa {
namespace {

using ::mqa::testing::ExactKnn;
using ::mqa::testing::MakeClusteredStore;
using ::mqa::testing::MakeTwoModalityStore;
using ::mqa::testing::Recall;

TEST(BeamSearchTest, FindsExactNeighborsOnCompleteGraph) {
  std::vector<Vector> queries;
  VectorStore store = MakeClusteredStore(200, 8, 4, 1, &queries, 5);
  // Complete graph: beam search must find the exact answer.
  AdjacencyGraph g(store.size());
  for (uint32_t u = 0; u < store.size(); ++u) {
    for (uint32_t v = 0; v < store.size(); ++v) {
      if (u != v) g.AddEdge(u, v);
    }
  }
  FlatDistanceComputer dist(&store, Metric::kL2);
  for (const Vector& q : queries) {
    const auto got = BeamSearch(g, &dist, q.data(), {0}, 10, 32, nullptr);
    const auto expected = ExactKnn(store, q, 10);
    EXPECT_DOUBLE_EQ(Recall(got, expected), 1.0);
  }
}

TEST(BeamSearchTest, EmptyEntriesOrGraphGivesEmpty) {
  VectorStore store = MakeClusteredStore(10, 4, 2, 2);
  AdjacencyGraph g(store.size());
  FlatDistanceComputer dist(&store, Metric::kL2);
  const Vector q(4, 0.0f);
  EXPECT_TRUE(BeamSearch(g, &dist, q.data(), {}, 5, 16, nullptr).empty());
  AdjacencyGraph empty;
  EXPECT_TRUE(
      BeamSearch(empty, &dist, q.data(), {0}, 5, 16, nullptr).empty());
}

TEST(BeamSearchTest, IsolatedEntryReturnsJustEntry) {
  VectorStore store = MakeClusteredStore(10, 4, 2, 3);
  AdjacencyGraph g(store.size());  // no edges at all
  FlatDistanceComputer dist(&store, Metric::kL2);
  const Vector q(4, 0.0f);
  const auto got = BeamSearch(g, &dist, q.data(), {3}, 5, 16, nullptr);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 3u);
}

TEST(BeamSearchTest, StatsCountHopsAndDistances) {
  VectorStore store = MakeClusteredStore(50, 4, 2, 4);
  AdjacencyGraph g(store.size());
  for (uint32_t u = 0; u < store.size(); ++u) {
    g.AddEdge(u, (u + 1) % store.size());  // ring
  }
  FlatDistanceComputer dist(&store, Metric::kL2);
  SearchStats stats;
  const Vector q(4, 0.0f);
  BeamSearch(g, &dist, q.data(), {0}, 5, 8, &stats);
  EXPECT_GT(stats.hops, 0u);
  EXPECT_GT(stats.dist_comps, 0u);
}

TEST(SearchStatsTest, MergeAddsCountersAndOrsFlags) {
  SearchStats a;
  a.hops = 3;
  a.dist_comps = 10;
  a.io_errors = 1;
  a.partial = false;
  a.shards_total = 2;
  a.shards_ok = 2;
  SearchStats b;
  b.hops = 4;
  b.dist_comps = 5;
  b.io_errors = 2;
  b.partial = true;
  b.shards_total = 1;
  b.shards_ok = 0;
  a.Merge(b);
  EXPECT_EQ(a.hops, 7u);
  EXPECT_EQ(a.dist_comps, 15u);
  EXPECT_EQ(a.io_errors, 3u);
  EXPECT_TRUE(a.partial);
  EXPECT_EQ(a.shards_total, 3u);
  EXPECT_EQ(a.shards_ok, 2u);
  // Merging the empty stats is the identity.
  SearchStats before = a;
  a.Merge(SearchStats{});
  EXPECT_EQ(a.hops, before.hops);
  EXPECT_EQ(a.dist_comps, before.dist_comps);
  EXPECT_TRUE(a.partial);
  a.Reset();
  EXPECT_EQ(a.hops, 0u);
  EXPECT_EQ(a.shards_total, 0u);
  EXPECT_FALSE(a.partial);
}

TEST(BeamSearchTest, EvaluatedCollectsScoredNodes) {
  VectorStore store = MakeClusteredStore(30, 4, 2, 5);
  AdjacencyGraph g(store.size());
  for (uint32_t u = 0; u + 1 < store.size(); ++u) g.AddEdge(u, u + 1);
  FlatDistanceComputer dist(&store, Metric::kL2);
  std::vector<Neighbor> evaluated;
  const Vector q(4, 0.0f);
  BeamSearch(g, &dist, q.data(), {0}, 3, 8, nullptr, &evaluated);
  EXPECT_GE(evaluated.size(), 3u);
  // No duplicates.
  std::set<uint32_t> ids;
  for (const auto& n : evaluated) ids.insert(n.id);
  EXPECT_EQ(ids.size(), evaluated.size());
}

TEST(BeamSearchTest, WiderBeamNeverHurtsRecall) {
  std::vector<Vector> queries;
  VectorStore store = MakeClusteredStore(500, 8, 8, 6, &queries, 10);
  // A modest random graph.
  Rng rng(7);
  AdjacencyGraph g(store.size());
  for (uint32_t u = 0; u < store.size(); ++u) {
    for (int e = 0; e < 8; ++e) {
      g.AddEdge(u, static_cast<uint32_t>(rng.NextUint64(store.size())));
    }
  }
  FlatDistanceComputer dist(&store, Metric::kL2);
  double narrow_total = 0, wide_total = 0;
  for (const Vector& q : queries) {
    const auto expected = ExactKnn(store, q, 10);
    narrow_total += Recall(
        BeamSearch(g, &dist, q.data(), {0}, 10, 10, nullptr), expected);
    wide_total += Recall(
        BeamSearch(g, &dist, q.data(), {0}, 10, 200, nullptr), expected);
  }
  EXPECT_GE(wide_total, narrow_total);
}

/// Builds an mqa-hybrid index over `store`, scored by the weighted
/// two-modality kernel (the MUST path).
std::unique_ptr<GraphIndex> BuildWeightedIndex(const VectorStore& store,
                                               uint64_t seed) {
  auto weighted = WeightedMultiDistance::Create(store.schema(), {0.8f, 0.2f});
  EXPECT_TRUE(weighted.ok());
  GraphBuildConfig config;
  config.max_degree = 12;
  config.build_beam = 32;
  config.nn_descent_k = 12;
  config.seed = seed;
  auto index = BuildGraphIndex(
      config, &store,
      std::make_unique<MultiVectorDistanceComputer>(
          &store, *std::move(weighted)));
  EXPECT_TRUE(index.ok());
  return index.ok() ? std::move(index).Value() : nullptr;
}

TEST(BeamSearchConcurrencyTest, ThreadsSharingOneIndexMatchASequentialRun) {
  // Two indexes of different sizes, so each thread's reused scratch moves
  // between graphs; searches at several beams, some filtered.
  const VectorStore big_store = MakeTwoModalityStore(1500, 51);
  const VectorStore small_store = MakeTwoModalityStore(300, 52);
  std::unique_ptr<GraphIndex> big = BuildWeightedIndex(big_store, 7);
  std::unique_ptr<GraphIndex> small = BuildWeightedIndex(small_store, 8);
  ASSERT_NE(big, nullptr);
  ASSERT_NE(small, nullptr);

  struct Task {
    GraphIndex* index;
    const float* query;
    SearchParams params;
  };
  std::vector<Task> tasks;
  for (uint32_t q = 0; q < 60; ++q) {
    for (size_t beam : {8, 32, 96}) {
      Task task{q % 3 == 0 ? small.get() : big.get(), nullptr, {}};
      const VectorStore& store = q % 3 == 0 ? small_store : big_store;
      task.query = store.data(q * 37 % store.size());
      task.params.k = 10;
      task.params.beam_width = beam;
      if (q % 4 == 1) {
        task.params.filter = [](uint32_t id) { return id % 3 != 0; };
      }
      tasks.push_back(task);
    }
  }
  auto run = [](const Task& task) {
    SearchStats stats;
    auto found = task.index->Search(task.query, task.params, &stats);
    EXPECT_TRUE(found.ok());
    std::vector<Neighbor> out = found.ok() ? *found : std::vector<Neighbor>{};
    out.push_back({0.0f, static_cast<uint32_t>(stats.hops)});
    out.push_back({0.0f, static_cast<uint32_t>(stats.dist_comps)});
    return out;
  };
  std::vector<std::vector<Neighbor>> expected;
  for (const Task& task : tasks) expected.push_back(run(task));

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks every task three times, in its own seeded order.
      Rng rng(100 + t);
      const auto count = static_cast<uint32_t>(tasks.size());
      for (int pass = 0; pass < 3; ++pass) {
        for (uint32_t i : rng.Permutation(count)) {
          if (run(tasks[i]) != expected[i]) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST(ApproximateMedoidTest, PicksCentralPoint) {
  // 1D store: values 0..99; medoid should be near 50.
  VectorSchema schema;
  schema.dims = {1};
  VectorStore store(schema);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Add({static_cast<float>(i)}).ok());
  }
  FlatDistanceComputer dist(&store, Metric::kL2);
  Rng rng(8);
  const uint32_t medoid = ApproximateMedoid(&dist, &rng, 100);
  EXPECT_GE(medoid, 30u);
  EXPECT_LE(medoid, 70u);
}

TEST(GraphIndexTest, SearchValidatesParams) {
  VectorStore store = MakeClusteredStore(20, 4, 2, 9);
  AdjacencyGraph g(store.size());
  for (uint32_t u = 0; u + 1 < store.size(); ++u) g.AddEdge(u, u + 1);
  auto dist = std::make_unique<FlatDistanceComputer>(&store, Metric::kL2);
  GraphIndex index("test", std::move(g), std::move(dist), {0});
  const Vector q(4, 0.0f);
  SearchParams params;
  params.k = 0;
  EXPECT_FALSE(index.Search(q.data(), params, nullptr).ok());
  params.k = 5;
  auto results = index.Search(q.data(), params, nullptr);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 5u);
  EXPECT_EQ(index.name(), "test");
  EXPECT_EQ(index.size(), 20u);
  EXPECT_GT(index.MemoryBytes(), 0u);
}

TEST(BruteForceIndexTest, ExactAndSorted) {
  std::vector<Vector> queries;
  VectorStore store = MakeClusteredStore(300, 8, 4, 10, &queries, 5);
  BruteForceIndex index(
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  SearchParams params;
  params.k = 10;
  for (const Vector& q : queries) {
    SearchStats stats;
    auto got = index.Search(q.data(), params, &stats);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Recall(*got, ExactKnn(store, q, 10)), 1.0);
    EXPECT_EQ(stats.dist_comps, 300u);
    for (size_t i = 1; i < got->size(); ++i) {
      EXPECT_LE((*got)[i - 1].distance, (*got)[i].distance);
    }
  }
}

TEST(BruteForceIndexTest, RejectsZeroK) {
  VectorStore store = MakeClusteredStore(10, 4, 2, 11);
  BruteForceIndex index(
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  const Vector q(4, 0.0f);
  SearchParams params;
  params.k = 0;
  EXPECT_FALSE(index.Search(q.data(), params, nullptr).ok());
}

}  // namespace
}  // namespace mqa
