#ifndef MQA_GRAPH_GRAPH_H_
#define MQA_GRAPH_GRAPH_H_

#include <cstdint>
#include <iosfwd>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "vector/simd/simd.h"

namespace mqa {

/// Adjacency lists of a (flat) navigation graph: vertex = object id, edge =
/// similarity link. Directed; most builders keep out-degree <= max_degree.
///
/// Stored in hnswlib's level-0 layout: one array of `capacity()` slots per
/// node plus a degree per node, so an expansion reads one contiguous block.
/// A list longer than the capacity keeps every edge, in order, in an
/// overflow list of its own (connectivity repair can push a few nodes past
/// the degree bound). Writers build a list, then commit it whole with
/// SetNeighbors.
///
/// Reads are safe from any number of threads while nothing writes. Writes
/// to distinct nodes may also run concurrently when neither the old nor the
/// new list is longer than the capacity; AddNode, Reserve and writes that
/// overflow need exclusive access.
class AdjacencyGraph {
 public:
  AdjacencyGraph() = default;
  /// `num_nodes` isolated nodes with `capacity` neighbor slots each.
  explicit AdjacencyGraph(uint32_t num_nodes, uint32_t capacity = 0)
      : capacity_(capacity),
        degrees_(num_nodes, 0),
        slots_(static_cast<size_t>(num_nodes) * capacity, 0) {}

  uint32_t num_nodes() const { return static_cast<uint32_t>(degrees_.size()); }

  /// Neighbor slots per node; longer lists overflow.
  uint32_t capacity() const { return capacity_; }

  std::span<const uint32_t> neighbors(uint32_t node) const {
    MQA_DCHECK_LT(node, num_nodes());
    const uint32_t degree = degrees_[node];
    if (degree > capacity_) [[unlikely]] {
      return OverflowNeighbors(node);
    }
    return {slots_.data() + static_cast<size_t>(node) * capacity_, degree};
  }

  /// Hints that `node`'s list will be read soon.
  void PrefetchNeighbors(uint32_t node) const {
    MQA_DCHECK_LT(node, num_nodes());
    PrefetchRead(slots_.data() + static_cast<size_t>(node) * capacity_);
  }

  void AddEdge(uint32_t from, uint32_t to);

  /// Appends a new isolated node; returns its id.
  uint32_t AddNode() {
    degrees_.push_back(0);
    slots_.resize(slots_.size() + capacity_, 0);
    return num_nodes() - 1;
  }

  /// Replaces a node's list with `neighbors`, in order.
  void SetNeighbors(uint32_t node, const std::vector<uint32_t>& neighbors);

  /// Grows every node's slots to `capacity` (no-op when it is not larger);
  /// overflowed lists that now fit move into their slots.
  void Reserve(uint32_t capacity);

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

  /// Approximate memory footprint in bytes (the edges themselves; the
  /// fixed slots may hold more).
  uint64_t MemoryBytes() const { return num_edges() * sizeof(uint32_t); }

  /// Writes the node count, then each node's degree and neighbor ids. The
  /// format does not depend on the in-memory layout.
  Status Save(std::ostream& out) const;
  /// Restores a graph written by Save(). A truncated blob, or one with a
  /// degree or a neighbor id out of range, is an IoError; buffers grow
  /// with the lists actually read, so a corrupt count cannot make a large
  /// allocation. The capacity is the longest list's degree, unless that
  /// would take more than about four times the edges read (a hub node,
  /// say): the outsized lists then overflow.
  static Result<AdjacencyGraph> Load(std::istream& in);

 private:
  std::span<const uint32_t> OverflowNeighbors(uint32_t node) const;

  uint32_t capacity_ = 0;
  std::vector<uint32_t> degrees_;
  /// num_nodes() * capacity_ ids; node u's list starts at u * capacity_.
  std::vector<uint32_t> slots_;
  /// Lists longer than capacity_, by node.
  std::unordered_map<uint32_t, std::vector<uint32_t>> overflow_;
};

}  // namespace mqa

#endif  // MQA_GRAPH_GRAPH_H_
