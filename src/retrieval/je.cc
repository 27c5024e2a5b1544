#include "retrieval/je.h"

#include "encoder/encoder.h"

namespace mqa {

Result<std::unique_ptr<JeFramework>> JeFramework::Create(
    std::shared_ptr<const VectorStore> corpus,
    const IndexConfig& index_config) {
  if (corpus == nullptr || corpus->size() == 0) {
    return Status::InvalidArgument("empty corpus");
  }
  std::unique_ptr<JeFramework> fw(new JeFramework());
  fw->corpus_ = std::move(corpus);
  fw->weights_.assign(fw->corpus_->schema().num_modalities(), 1.0f);

  MQA_ASSIGN_OR_RETURN(VectorStore fused, FuseJointStore(*fw->corpus_));
  fw->joint_store_ = std::make_unique<VectorStore>(std::move(fused));
  auto dist = std::make_unique<FlatDistanceComputer>(fw->joint_store_.get(),
                                                     Metric::kL2);
  MQA_ASSIGN_OR_RETURN(
      fw->index_,
      CreateIndex(index_config, fw->joint_store_.get(), std::move(dist)));
  return fw;
}

Result<RetrievalResult> JeFramework::Retrieve(
    const RetrievalQuery& query, const SearchParams& params) const {
  if (query.modalities.parts.size() != schema().num_modalities()) {
    return Status::InvalidArgument("query modality count mismatch");
  }
  const Vector joint = FuseJoint(query.modalities);
  if (joint.empty()) {
    return Status::InvalidArgument("query has no present modality");
  }
  if (joint.size() != joint_store_->row_dim()) {
    return Status::InvalidArgument(
        "query embedding dimension does not match the joint space");
  }
  RetrievalResult result;
  // Clock-based timing: see MustFramework::Retrieve.
  const int64_t start_micros = clock()->NowMicros();
  const SearchParams effective = WithoutTombstones(params);
  MQA_ASSIGN_OR_RETURN(
      result.neighbors,
      index_->Search(joint.data(), effective, &result.stats));
  result.latency_ms =
      static_cast<double>(clock()->NowMicros() - start_micros) / 1e3;
  return result;
}

Status JeFramework::SetWeights(std::vector<float> weights) {
  (void)weights;
  return Status::Unimplemented(
      "joint embedding fuses modalities with fixed weights");
}

Status JeFramework::Remove(uint32_t id) {
  return MarkRemoved(id, joint_store_->size());
}

}  // namespace mqa
