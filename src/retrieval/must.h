#ifndef MQA_RETRIEVAL_MUST_H_
#define MQA_RETRIEVAL_MUST_H_

#include <iosfwd>
#include <memory>
#include <vector>

#include "retrieval/framework.h"

namespace mqa {

/// The MUST framework (the paper's contribution): multi-vector object
/// representation with learned modality weights, one unified navigation
/// graph over all modalities, and *merging-free* search — a single graph
/// traversal computes the weighted multi-vector distance, instead of
/// merging per-modality result lists. The graph is built once; each query
/// scores through its own WeightedMultiDistance, built from its weights and
/// handed to the index in SearchParams. Every distance is exact: the
/// paper's incremental scanning (abandoning a distance past the beam's
/// bound) did not pay here, and survives only as MUST-E4's replay
/// (bench_incremental_pruning).
class MustFramework : public RetrievalFramework {
 public:
  /// Builds the unified index over the encoded corpus with the given
  /// modality weights (typically from the weight learner).
  static Result<std::unique_ptr<MustFramework>> Create(
      std::shared_ptr<const VectorStore> corpus, std::vector<float> weights,
      const IndexConfig& index_config, BuildReport* report = nullptr);

  /// Restores a framework from a GraphIndex blob written by
  /// GraphIndex::Save (see core/persistence.h) — no rebuild.
  static Result<std::unique_ptr<MustFramework>> CreateFromSavedIndex(
      std::shared_ptr<const VectorStore> corpus, std::vector<float> weights,
      std::istream* index_blob);

  Result<RetrievalResult> Retrieve(const RetrievalQuery& query,
                                   const SearchParams& params) const override;

  std::string name() const override { return "must"; }
  const VectorSchema& schema() const override { return corpus_->schema(); }
  const std::vector<float>& weights() const override { return weights_; }
  Status SetWeights(std::vector<float> weights) override;

  /// Tombstones `id`: excluded from every subsequent Retrieve, physically
  /// evicted by CompactTombstones. Works for all index kinds (the filter
  /// is applied inside the search).
  Status Remove(uint32_t id) override;

  /// Rebuilds the flat navigation graph without the tombstoned nodes,
  /// after the caller has already compacted the shared corpus store in
  /// place per `remap` (old id -> new dense id / kTombstonedId; see
  /// TombstoneSet::BuildRemap). Adjacency is spliced, not re-derived, so
  /// this is much cheaper than a fresh build. Unimplemented for non-flat
  /// index kinds — callers fall back to a full rebuild.
  Status CompactTombstones(const std::vector<uint32_t>& remap,
                           uint32_t live_count,
                           const GraphBuildConfig& config);

  /// Whether IngestAppended can succeed for the underlying index type.
  bool SupportsLiveIngestion() const;

  /// The underlying flat graph index, or nullptr for other index kinds
  /// (used by system persistence).
  const GraphIndex* flat_graph_index() const {
    return dynamic_cast<const GraphIndex*>(index_.get());
  }

  /// Incremental ingestion: after the caller appended one encoded
  /// multi-vector row to the shared corpus store, links it into the
  /// underlying index. Supported for flat graph indexes, HNSW and
  /// bruteforce; the disk-resident index is immutable (rebuild instead).
  Status IngestAppended(const GraphBuildConfig& config);

  /// Distance counters accumulated by the searches. Every call is exact,
  /// so each counts as full. Empty when the index manages distances itself
  /// (starling).
  const DistanceStats& distance_stats() const;
  void ResetDistanceStats() {
    if (dist_ != nullptr) dist_->ResetStats();
  }

 private:
  MustFramework() = default;

  std::shared_ptr<const VectorStore> corpus_;
  std::vector<float> weights_;
  std::unique_ptr<VectorIndex> index_;
  // The index's distance computer, owned by index_ (null for the
  // disk-resident index, which keeps its own copy of the distance).
  MultiVectorDistanceComputer* dist_ = nullptr;
};

}  // namespace mqa

#endif  // MQA_RETRIEVAL_MUST_H_
