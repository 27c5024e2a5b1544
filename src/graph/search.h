#ifndef MQA_GRAPH_SEARCH_H_
#define MQA_GRAPH_SEARCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/topk.h"
#include "graph/graph.h"
#include "graph/index.h"
#include "vector/vector_store.h"

namespace mqa {

/// Best-first beam search over a navigation graph — the paper's "Query
/// Execution" traversal: start at the entry vertices, repeatedly expand the
/// closest unexpanded vertex, stop when the beam can no longer improve.
/// The beam is one sorted buffer of the `beam_width` best candidates, each
/// flagged once expanded (NSG's retset, DiskANN's NeighborPriorityQueue);
/// ties are broken by NeighborLess. Distances go through
/// `dist->DistanceWithBound`, so the incremental multi-vector scan prunes
/// against the beam's current worst. They run in a DistanceContext local
/// to the call, which carries `weighted` (the query's own weighted
/// distance; null = the computer's default), and its tally is added to
/// `dist` once, at the end (DistanceComputer::AddTally).
///
/// The visited table, the buffer and the to-score list are scratch reused
/// by every search on the calling thread (a thread_local), so a search
/// allocates nothing once its thread has seen a graph this large, and
/// resetting the visited table is O(1). Concurrent searches on one graph
/// from different threads are safe while nothing writes the graph. The
/// filter and the distance computer must not run a BeamSearch themselves:
/// it would reuse the scratch of the search that called them.
///
/// Returns the k best results sorted ascending. When `evaluated` is given,
/// every (distance, id) actually scored is appended (build-time candidate
/// pools). `stats` may be null. When `filter` is set, filtered-out
/// vertices are still traversed (they keep the graph navigable) but only
/// admitted ids are returned.
std::vector<Neighbor> BeamSearch(
    const AdjacencyGraph& graph, const DistanceComputer* dist,
    const float* query, const std::vector<uint32_t>& entries, size_t k,
    size_t beam_width, SearchStats* stats,
    std::vector<Neighbor>* evaluated = nullptr,
    const SearchFilter& filter = nullptr,
    const WeightedMultiDistance* weighted = nullptr);

/// Approximate medoid: the sampled node minimizing total distance to a
/// random sample. Deterministic given the rng seed.
uint32_t ApproximateMedoid(const DistanceComputer* dist, Rng* rng,
                           uint32_t sample_size = 128);

/// A flat navigation-graph index (NSG / Vamana / KGraph / MQA-hybrid
/// results all live here): graph + distance computer + entry points.
class GraphIndex : public VectorIndex {
 public:
  GraphIndex(std::string name, AdjacencyGraph graph,
             std::unique_ptr<DistanceComputer> dist,
             std::vector<uint32_t> entry_points)
      : name_(std::move(name)),
        graph_(std::move(graph)),
        dist_(std::move(dist)),
        entry_points_(std::move(entry_points)) {}

  Result<std::vector<Neighbor>> Search(const float* query,
                                       const SearchParams& params,
                                       SearchStats* stats) const override;

  std::string name() const override { return name_; }
  uint32_t size() const override { return graph_.num_nodes(); }
  uint64_t MemoryBytes() const override { return graph_.MemoryBytes(); }

  const AdjacencyGraph& graph() const { return graph_; }
  AdjacencyGraph* mutable_graph() { return &graph_; }
  DistanceComputer* distance() { return dist_.get(); }
  const std::vector<uint32_t>& entry_points() const { return entry_points_; }

  /// Persists name + graph + entry points (vectors are stored separately
  /// in the VectorStore).
  Status Save(std::ostream& out) const;

  /// Restores an index saved with Save(). The caller supplies a distance
  /// computer over the matching vector store. Neighbor or entry ids out of
  /// range are an IoError.
  static Result<std::unique_ptr<GraphIndex>> Load(
      std::istream& in, std::unique_ptr<DistanceComputer> dist);

 private:
  std::string name_;
  AdjacencyGraph graph_;
  std::unique_ptr<DistanceComputer> dist_;
  std::vector<uint32_t> entry_points_;
};

/// Exhaustive scan baseline. Exact, O(N) per query; also benefits from
/// bound-pruned distances once the top-k fills up.
class BruteForceIndex : public VectorIndex {
 public:
  explicit BruteForceIndex(std::unique_ptr<DistanceComputer> dist)
      : dist_(std::move(dist)) {}

  Result<std::vector<Neighbor>> Search(const float* query,
                                       const SearchParams& params,
                                       SearchStats* stats) const override;

  std::string name() const override { return "bruteforce"; }
  uint32_t size() const override { return dist_->size(); }
  uint64_t MemoryBytes() const override { return 0; }

  DistanceComputer* distance() { return dist_.get(); }

 private:
  std::unique_ptr<DistanceComputer> dist_;
};

}  // namespace mqa

#endif  // MQA_GRAPH_SEARCH_H_
