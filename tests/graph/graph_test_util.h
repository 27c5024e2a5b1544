#ifndef MQA_TESTS_GRAPH_GRAPH_TEST_UTIL_H_
#define MQA_TESTS_GRAPH_GRAPH_TEST_UTIL_H_

#include <memory>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/topk.h"
#include "graph/graph.h"
#include "vector/vector_store.h"

namespace mqa::testing {

/// Gaussian-mixture vectors: `num_clusters` centers, unit-ish spread —
/// realistic enough for navigation graphs to shine over brute force.
inline VectorStore MakeClusteredStore(uint32_t n, uint32_t dim,
                                      uint32_t num_clusters, uint64_t seed,
                                      std::vector<Vector>* queries = nullptr,
                                      uint32_t num_queries = 0) {
  Rng rng(seed);
  std::vector<Vector> centers(num_clusters, Vector(dim));
  for (auto& c : centers) {
    for (auto& x : c) x = static_cast<float>(rng.Gaussian()) * 3.0f;
  }
  VectorSchema schema;
  schema.dims = {dim};
  VectorStore store(schema);
  store.Reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const Vector& c = centers[i % num_clusters];
    Vector v(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      v[d] = c[d] + static_cast<float>(rng.Gaussian()) * 0.5f;
    }
    (void)store.Add(v);
  }
  if (queries != nullptr) {
    for (uint32_t q = 0; q < num_queries; ++q) {
      const Vector& c = centers[q % num_clusters];
      Vector v(dim);
      for (uint32_t d = 0; d < dim; ++d) {
        v[d] = c[d] + static_cast<float>(rng.Gaussian()) * 0.5f;
      }
      queries->push_back(std::move(v));
    }
  }
  return store;
}

/// A clustered store re-laid out as one modality per entry of `dims`, so
/// the weighted multi-vector kernel scores it one segment per modality.
inline VectorStore MakeMultiModalityStore(uint32_t n,
                                          std::vector<uint32_t> dims,
                                          uint64_t seed) {
  uint32_t total = 0;
  for (uint32_t d : dims) total += d;
  const VectorStore flat = MakeClusteredStore(n, total, 8, seed);
  VectorSchema schema;
  schema.dims = std::move(dims);
  VectorStore store(schema);
  for (uint32_t i = 0; i < flat.size(); ++i) (void)store.Add(flat.Row(i));
  return store;
}

/// A clustered 16-dim store re-laid out as two 8-dim modalities.
inline VectorStore MakeTwoModalityStore(uint32_t n, uint64_t seed) {
  return MakeMultiModalityStore(n, {8, 8}, seed);
}

/// Exact k-nearest neighbors by linear scan (L2).
inline std::vector<Neighbor> ExactKnn(const VectorStore& store,
                                      const Vector& query, size_t k) {
  TopK topk(k);
  for (uint32_t i = 0; i < store.size(); ++i) {
    topk.Push(L2Sq(query.data(), store.data(i), store.row_dim()), i);
  }
  return topk.TakeSorted();
}

/// A node's neighbor list as a vector, for comparisons with ==.
inline std::vector<uint32_t> NeighborList(const AdjacencyGraph& graph,
                                          uint32_t node) {
  const std::span<const uint32_t> nbrs = graph.neighbors(node);
  return {nbrs.begin(), nbrs.end()};
}

/// FNV-1a (64-bit) over every node's degree and neighbor ids, in order:
/// two graphs hash equal exactly when their adjacency lists are equal
/// (up to hash collisions).
inline uint64_t GraphHash(const AdjacencyGraph& graph) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint32_t word) {
    for (int b = 0; b < 4; ++b) {
      h ^= (word >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(graph.num_nodes());
  for (uint32_t u = 0; u < graph.num_nodes(); ++u) {
    mix(static_cast<uint32_t>(graph.neighbors(u).size()));
    for (uint32_t v : graph.neighbors(u)) mix(v);
  }
  return h;
}

/// recall@k of `got` against exact `expected` (id-set overlap).
inline double Recall(const std::vector<Neighbor>& got,
                     const std::vector<Neighbor>& expected) {
  if (expected.empty()) return 1.0;
  size_t hits = 0;
  for (const Neighbor& e : expected) {
    for (const Neighbor& g : got) {
      if (g.id == e.id) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / expected.size();
}

}  // namespace mqa::testing

#endif  // MQA_TESTS_GRAPH_GRAPH_TEST_UTIL_H_
