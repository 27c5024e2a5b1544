#ifndef MQA_GRAPH_HNSW_H_
#define MQA_GRAPH_HNSW_H_

#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "graph/index.h"
#include "vector/simd/simd.h"
#include "vector/vector_store.h"

namespace mqa {

/// Per node, per layer, the node's links: HNSW's adjacency.
using HnswLinks = std::vector<std::vector<std::vector<uint32_t>>>;

/// One layer of an HNSW hierarchy as the graph BeamSearch walks. A node
/// not on the layer has no neighbors on it.
class HnswLayerView {
 public:
  HnswLayerView(const HnswLinks& links, int layer)
      : links_(&links), layer_(static_cast<size_t>(layer)) {}

  uint32_t num_nodes() const { return static_cast<uint32_t>(links_->size()); }

  std::span<const uint32_t> neighbors(uint32_t node) const {
    const auto& layers = (*links_)[node];
    if (layer_ >= layers.size()) return {};
    return layers[layer_];
  }

  /// Hints that `node`'s list will be read soon.
  void PrefetchNeighbors(uint32_t node) const {
    const auto& layers = (*links_)[node];
    if (layer_ < layers.size()) PrefetchRead(layers[layer_].data());
  }

 private:
  const HnswLinks* links_;
  size_t layer_;
};

/// HNSW construction parameters.
struct HnswConfig {
  uint32_t m = 16;                 ///< max links per node above layer 0
  uint32_t ef_construction = 100;  ///< build-time beam width
  uint64_t seed = 42;
};

/// Hierarchical Navigable Small World index (Malkov & Yashunin). The
/// hierarchy is the one navigation-graph family that is not flat, so it
/// lives beside the unified pipeline as its own VectorIndex; its layer-0
/// neighbor selection uses the same diversification heuristic as the
/// pipeline's RobustPrune stage.
class HnswIndex : public VectorIndex {
 public:
  /// Builds by sequential insertion over all vectors in `store`. The index
  /// takes ownership of `dist`; `store` must outlive the index.
  static Result<std::unique_ptr<HnswIndex>> Build(
      const HnswConfig& config, const VectorStore* store,
      std::unique_ptr<DistanceComputer> dist);

  Result<std::vector<Neighbor>> Search(const float* query,
                                       const SearchParams& params,
                                       SearchStats* stats) const override;

  std::string name() const override { return "hnsw"; }
  uint32_t size() const override {
    return static_cast<uint32_t>(levels_.size());
  }
  uint64_t MemoryBytes() const override;

  /// Incremental ingestion: inserts the store row with id == size() (the
  /// caller appends to the store first). HNSW construction is insertion-
  /// based, so this is the same code path as Build.
  Status InsertAppended();

  int max_level() const { return max_level_; }
  const std::vector<uint32_t>& links(uint32_t node, int layer) const {
    return links_[node][layer];
  }

  /// Persists the hierarchy (levels, per-layer links, entry point). The
  /// vectors stay in the VectorStore.
  Status Save(std::ostream& out) const;

  /// Restores an index saved with Save() over the matching store. A blob
  /// whose links, entry point or levels could send a search out of range
  /// is an IoError.
  static Result<std::unique_ptr<HnswIndex>> Load(
      std::istream& in, const HnswConfig& config, const VectorStore* store,
      std::unique_ptr<DistanceComputer> dist);

 private:
  HnswIndex(const HnswConfig& config, const VectorStore* store,
            std::unique_ptr<DistanceComputer> dist)
      : config_(config), store_(store), dist_(std::move(dist)),
        rng_(config.seed) {}

  void Insert(uint32_t id);

  /// Greedy descent from the entry point through every layer above
  /// `layer`: on each, moves to a closer neighbor until none is closer.
  /// Returns the node it stops at, with its distance. Distances run in
  /// `ctx`; `stats` (may be null) counts them and one hop per pass.
  Neighbor Descend(const float* query, int layer, DistanceContext* ctx,
                   SearchStats* stats) const;

  /// HNSW's "select neighbors heuristic": diversity-pruned selection.
  std::vector<uint32_t> SelectNeighbors(uint32_t node,
                                        std::vector<Neighbor> candidates,
                                        uint32_t m) const;

  HnswConfig config_;
  const VectorStore* store_;
  std::unique_ptr<DistanceComputer> dist_;
  Rng rng_;

  std::vector<int> levels_;  // per node
  HnswLinks links_;          // [node][layer]
  uint32_t entry_point_ = 0;
  int max_level_ = -1;
};

}  // namespace mqa

#endif  // MQA_GRAPH_HNSW_H_
