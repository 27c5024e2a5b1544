#ifndef MQA_RETRIEVAL_JE_H_
#define MQA_RETRIEVAL_JE_H_

#include <memory>
#include <vector>

#include "retrieval/framework.h"

namespace mqa {

/// The Joint Embedding baseline (CLIP/ARTEMIS-style): every object is
/// fused into a single vector (normalized mean of its aligned per-modality
/// embeddings) and a single-channel index is searched. Its limitation —
/// reproduced here — is the fixed fusion: modality importance cannot be
/// adjusted, and fusing dilutes whichever modality carries the signal.
class JeFramework : public RetrievalFramework {
 public:
  static Result<std::unique_ptr<JeFramework>> Create(
      std::shared_ptr<const VectorStore> corpus,
      const IndexConfig& index_config);

  Result<RetrievalResult> Retrieve(const RetrievalQuery& query,
                                   const SearchParams& params) const override;

  std::string name() const override { return "je"; }
  const VectorSchema& schema() const override { return corpus_->schema(); }
  const std::vector<float>& weights() const override { return weights_; }

  /// JE has no tunable modality weights; always fails.
  Status SetWeights(std::vector<float> weights) override;

  /// Tombstones `id` in the joint index.
  Status Remove(uint32_t id) override;

 private:
  JeFramework() = default;

  std::shared_ptr<const VectorStore> corpus_;
  std::vector<float> weights_;  // fixed uniform, for introspection only
  std::unique_ptr<VectorStore> joint_store_;
  std::unique_ptr<VectorIndex> index_;
};

}  // namespace mqa

#endif  // MQA_RETRIEVAL_JE_H_
