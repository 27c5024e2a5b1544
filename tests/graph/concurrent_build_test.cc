// Concurrency audit tests for the graph-build and search paths, written to
// run clean under -fsanitize=thread:
//
//  * independent builds racing on different stores (shared DefaultThreadPool
//    through the DAG engine and shared process-wide statics),
//  * concurrent read-only searches on one shared index — including the MUST
//    multi-vector path, whose DistanceStats each search updates once, from
//    its own tally,
//  * builds overlapping with searches on other indexes.
//
// Single-writer mutation (InsertAppended / InsertIntoGraphIndex) is NOT
// exercised concurrently with searches: indexes are externally synchronized
// by design (see DESIGN.md "Correctness tooling").

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "graph/hnsw.h"
#include "graph/pipeline.h"
#include "graph/search.h"
#include "graph_test_util.h"
#include "vector/multi_distance.h"
#include "vector/vector_store.h"

namespace mqa {
namespace {

using ::mqa::testing::MakeClusteredStore;

GraphBuildConfig SmallConfig(const std::string& algorithm, uint64_t seed) {
  GraphBuildConfig config;
  config.algorithm = algorithm;
  config.max_degree = 12;
  config.build_beam = 24;
  config.nn_descent_k = 12;
  config.nn_descent_iters = 4;
  config.seed = seed;
  return config;
}

TEST(ConcurrentBuildTest, IndependentBuildsRaceOnSharedProcessState) {
  constexpr int kBuilders = 4;
  const char* algorithms[kBuilders] = {"mqa-hybrid", "vamana", "nsg",
                                       "kgraph"};
  std::vector<VectorStore> stores;
  stores.reserve(kBuilders);
  for (int b = 0; b < kBuilders; ++b) {
    stores.push_back(MakeClusteredStore(150, 8, 4, /*seed=*/100 + b));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> builders;
  builders.reserve(kBuilders);
  for (int b = 0; b < kBuilders; ++b) {
    builders.emplace_back([b, &stores, &algorithms, &failures] {
      auto dist = std::make_unique<FlatDistanceComputer>(&stores[b],
                                                         Metric::kL2);
      auto built = BuildGraphIndex(SmallConfig(algorithms[b], 7 * b + 1),
                                   &stores[b], std::move(dist));
      if (!built.ok() || (*built)->size() != stores[b].size()) ++failures;
    });
  }
  for (auto& t : builders) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrentBuildTest, ConcurrentSearchesOnSharedGraphIndex) {
  std::vector<Vector> queries;
  VectorStore store =
      MakeClusteredStore(300, 8, 4, /*seed=*/7, &queries, /*num_queries=*/8);
  auto dist = std::make_unique<FlatDistanceComputer>(&store, Metric::kL2);
  auto built =
      BuildGraphIndex(SmallConfig("mqa-hybrid", 42), &store, std::move(dist));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  GraphIndex* index = built->get();

  // Single-thread baseline results per query.
  SearchParams params;
  params.k = 5;
  params.beam_width = 32;
  std::vector<std::vector<Neighbor>> baseline;
  for (const Vector& q : queries) {
    auto r = index->Search(q.data(), params, nullptr);
    ASSERT_TRUE(r.ok());
    baseline.push_back(*std::move(r));
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> searchers;
  searchers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    searchers.emplace_back([&, t] {
      SearchParams p;
      p.k = 5;
      p.beam_width = 32;
      for (int round = 0; round < kRounds; ++round) {
        const size_t qi = (t + round) % queries.size();
        SearchStats stats;
        auto r = index->Search(queries[qi].data(), p, &stats);
        if (!r.ok() || stats.dist_comps == 0) {
          ++mismatches;
          continue;
        }
        const std::vector<Neighbor>& expected = baseline[qi];
        if (r->size() != expected.size()) {
          ++mismatches;
          continue;
        }
        for (size_t i = 0; i < expected.size(); ++i) {
          if ((*r)[i].id != expected[i].id) ++mismatches;
        }
      }
    });
  }
  for (auto& t : searchers) t.join();
  // Read-only searches are deterministic: racing readers must agree with
  // the single-thread baseline exactly.
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentBuildTest, SharedMustDistanceStatsStayConsistent) {
  // The MUST serving path: one index, one MultiVectorDistanceComputer,
  // many concurrent queries folding their tallies into the shared distance
  // counters. Every distance a search issues is counted exactly once, as a
  // full computation over the whole row.
  VectorSchema schema;
  schema.dims = {4, 4};
  VectorStore store(schema);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    Vector v(8);
    for (auto& x : v) x = static_cast<float>(rng.Gaussian());
    ASSERT_TRUE(store.Add(v).ok());
  }
  auto weighted = WeightedMultiDistance::Create(schema, {0.7f, 0.3f});
  ASSERT_TRUE(weighted.ok());
  auto dist = std::make_unique<MultiVectorDistanceComputer>(
      &store, *std::move(weighted));
  MultiVectorDistanceComputer* raw_dist = dist.get();
  auto built =
      BuildGraphIndex(SmallConfig("mqa-hybrid", 11), &store, std::move(dist));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  GraphIndex* index = built->get();
  raw_dist->ResetStats();

  constexpr int kThreads = 4;
  constexpr int kQueriesEach = 20;
  std::atomic<int> failures{0};
  std::vector<SearchStats> per_thread(kThreads);
  std::vector<std::thread> searchers;
  searchers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    searchers.emplace_back([&, t] {
      Rng qrng(100 + t);
      SearchParams p;
      p.k = 3;
      p.beam_width = 16;
      for (int i = 0; i < kQueriesEach; ++i) {
        Vector q(8);
        for (auto& x : q) x = static_cast<float>(qrng.Gaussian());
        if (!index->Search(q.data(), p, &per_thread[t]).ok()) ++failures;
      }
    });
  }
  for (auto& t : searchers) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Counters quiesced: totals are exact now and must reflect real work.
  uint64_t dist_comps = 0;
  for (const SearchStats& s : per_thread) dist_comps += s.dist_comps;
  EXPECT_GT(dist_comps, 0u);
  EXPECT_EQ(raw_dist->stats().TotalComputations(), dist_comps);
  EXPECT_EQ(raw_dist->stats().pruned_computations.load(), 0u);
  EXPECT_EQ(raw_dist->stats().dims_scanned.load(), dist_comps * 8);
}

TEST(ConcurrentBuildTest, ConcurrentHnswSearchesMatchBaseline) {
  std::vector<Vector> queries;
  VectorStore store =
      MakeClusteredStore(250, 8, 4, /*seed=*/21, &queries, /*num_queries=*/6);
  HnswConfig config;
  config.m = 8;
  config.ef_construction = 40;
  auto built = HnswIndex::Build(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  HnswIndex* index = built->get();

  SearchParams params;
  params.k = 5;
  params.beam_width = 32;
  std::vector<std::vector<Neighbor>> baseline;
  for (const Vector& q : queries) {
    auto r = index->Search(q.data(), params, nullptr);
    ASSERT_TRUE(r.ok());
    baseline.push_back(*std::move(r));
  }

  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> searchers;
  searchers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    searchers.emplace_back([&] {
      SearchParams p;
      p.k = 5;
      p.beam_width = 32;
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        auto r = index->Search(queries[qi].data(), p, nullptr);
        if (!r.ok() || r->size() != baseline[qi].size()) {
          ++mismatches;
          continue;
        }
        for (size_t i = 0; i < baseline[qi].size(); ++i) {
          if ((*r)[i].id != baseline[qi][i].id) ++mismatches;
        }
      }
    });
  }
  for (auto& t : searchers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentBuildTest, BuildOverlapsWithSearchOnOtherIndex) {
  std::vector<Vector> queries;
  VectorStore search_store =
      MakeClusteredStore(200, 8, 4, /*seed=*/31, &queries, /*num_queries=*/4);
  auto built = BuildGraphIndex(
      SmallConfig("nsg", 5), &search_store,
      std::make_unique<FlatDistanceComputer>(&search_store, Metric::kL2));
  ASSERT_TRUE(built.ok());
  GraphIndex* index = built->get();

  VectorStore build_store = MakeClusteredStore(200, 8, 4, /*seed=*/32);
  std::atomic<int> failures{0};

  std::thread builder([&build_store, &failures] {
    for (int i = 0; i < 3; ++i) {
      auto b = BuildGraphIndex(SmallConfig("vamana", 60 + i), &build_store,
                               std::make_unique<FlatDistanceComputer>(
                                   &build_store, Metric::kL2));
      if (!b.ok()) ++failures;
    }
  });
  std::thread searcher([index, &queries, &failures] {
    SearchParams p;
    p.k = 4;
    p.beam_width = 24;
    for (int round = 0; round < 30; ++round) {
      for (const Vector& q : queries) {
        if (!index->Search(q.data(), p, nullptr).ok()) ++failures;
      }
    }
  });
  builder.join();
  searcher.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace mqa
