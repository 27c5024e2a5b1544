#ifndef MQA_RETRIEVAL_MR_H_
#define MQA_RETRIEVAL_MR_H_

#include <memory>
#include <vector>

#include "retrieval/framework.h"

namespace mqa {

/// The Multi-streamed Retrieval baseline (Milvus-style): one standalone
/// vector index per modality. A query searches every present modality
/// independently, unions the candidate lists, re-scores the union with the
/// (uniform) weighted sum of per-modality distances, and returns the top-k.
/// Its known weakness — reproduced here — is that the true multi-modal
/// nearest neighbors may appear in no single modality's candidate list.
class MrFramework : public RetrievalFramework {
 public:
  /// `candidate_factor` scales how many candidates each per-modality
  /// search contributes (k * factor).
  static Result<std::unique_ptr<MrFramework>> Create(
      std::shared_ptr<const VectorStore> corpus, std::vector<float> weights,
      const IndexConfig& index_config, size_t candidate_factor = 3);

  Result<RetrievalResult> Retrieve(const RetrievalQuery& query,
                                   const SearchParams& params) const override;

  std::string name() const override { return "mr"; }
  const VectorSchema& schema() const override { return corpus_->schema(); }
  const std::vector<float>& weights() const override { return weights_; }
  Status SetWeights(std::vector<float> weights) override;

  /// Tombstones `id` across every per-modality stream.
  Status Remove(uint32_t id) override;

 private:
  MrFramework() = default;

  std::shared_ptr<const VectorStore> corpus_;
  std::vector<float> weights_;
  size_t candidate_factor_ = 3;
  std::vector<std::unique_ptr<VectorStore>> stores_;   // per modality
  std::vector<std::unique_ptr<VectorIndex>> indexes_;  // per modality
};

}  // namespace mqa

#endif  // MQA_RETRIEVAL_MR_H_
