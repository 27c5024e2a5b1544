#ifndef MQA_GRAPH_GRAPH_H_
#define MQA_GRAPH_GRAPH_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/check.h"
#include "common/result.h"

namespace mqa {

/// Adjacency lists of a (flat) navigation graph: vertex = object id, edge =
/// similarity link. Directed; most builders keep out-degree <= max_degree.
class AdjacencyGraph {
 public:
  AdjacencyGraph() = default;
  explicit AdjacencyGraph(uint32_t num_nodes) : adj_(num_nodes) {}

  uint32_t num_nodes() const { return static_cast<uint32_t>(adj_.size()); }

  const std::vector<uint32_t>& neighbors(uint32_t node) const {
    MQA_DCHECK_LT(node, num_nodes());
    return adj_[node];
  }
  std::vector<uint32_t>* mutable_neighbors(uint32_t node) {
    MQA_DCHECK_LT(node, num_nodes());
    return &adj_[node];
  }

  void AddEdge(uint32_t from, uint32_t to) {
    MQA_DCHECK_LT(from, num_nodes());
    MQA_DCHECK_LT(to, num_nodes());
    adj_[from].push_back(to);
  }

  /// Appends a new isolated node; returns its id.
  uint32_t AddNode() {
    adj_.emplace_back();
    return num_nodes() - 1;
  }
  void SetNeighbors(uint32_t node, std::vector<uint32_t> neighbors) {
    MQA_DCHECK_LT(node, num_nodes());
    adj_[node] = std::move(neighbors);
  }

  /// Total number of directed edges.
  uint64_t num_edges() const;
  double AverageDegree() const;
  uint32_t MaxDegree() const;

  /// Number of nodes reachable from `start` (BFS over out-edges).
  uint32_t ReachableFrom(uint32_t start) const;

  /// True when every node is reachable from `start`.
  bool IsConnectedFrom(uint32_t start) const {
    return ReachableFrom(start) == num_nodes();
  }

  /// Approximate memory footprint in bytes (edge storage).
  uint64_t MemoryBytes() const { return num_edges() * sizeof(uint32_t); }

  Status Save(std::ostream& out) const;
  /// Restores a graph written by Save(). A truncated blob, or one with a
  /// degree or a neighbor id out of range, is an IoError.
  static Result<AdjacencyGraph> Load(std::istream& in);

 private:
  std::vector<std::vector<uint32_t>> adj_;
};

}  // namespace mqa

#endif  // MQA_GRAPH_GRAPH_H_
