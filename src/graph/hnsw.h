#ifndef MQA_GRAPH_HNSW_H_
#define MQA_GRAPH_HNSW_H_

#include <iosfwd>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "graph/index.h"
#include "vector/vector_store.h"

namespace mqa {

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

  /// Beam search restricted to one layer; returns up to `ef` closest,
  /// ascending. With a filter, only admitted ids are returned (the beam
  /// still navigates over everything). Distances run in `ctx`, the calling
  /// search's.
  std::vector<Neighbor> SearchLayer(const float* query, uint32_t entry,
                                    float entry_dist, size_t ef, int layer,
                                    SearchStats* stats, DistanceContext* ctx,
                                    const SearchFilter& filter = nullptr,
                                    size_t k = 0) const;

  /// HNSW's "select neighbors heuristic": diversity-pruned selection.
  std::vector<uint32_t> SelectNeighbors(uint32_t node,
                                        std::vector<Neighbor> candidates,
                                        uint32_t m) const;

  HnswConfig config_;
  const VectorStore* store_;
  std::unique_ptr<DistanceComputer> dist_;
  Rng rng_;

  std::vector<int> levels_;                             // per node
  std::vector<std::vector<std::vector<uint32_t>>> links_;  // [node][layer]
  uint32_t entry_point_ = 0;
  int max_level_ = -1;
};

}  // namespace mqa

#endif  // MQA_GRAPH_HNSW_H_
