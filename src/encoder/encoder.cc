#include "encoder/encoder.h"

#include "vector/distance.h"

namespace mqa {

VectorSchema EncoderSet::Schema() const {
  VectorSchema schema;
  schema.dims.reserve(encoders_.size());
  for (const auto& e : encoders_) {
    schema.dims.push_back(static_cast<uint32_t>(e->dim()));
  }
  return schema;
}

Result<MultiVector> EncoderSet::EncodeObject(const Object& object) const {
  if (object.modalities.size() != encoders_.size()) {
    return Status::InvalidArgument(
        "object modality count does not match encoder set");
  }
  MultiVector mv;
  mv.parts.reserve(encoders_.size());
  for (size_t m = 0; m < encoders_.size(); ++m) {
    MQA_ASSIGN_OR_RETURN(Vector v, encoders_[m]->Encode(object.modalities[m]));
    mv.parts.push_back(std::move(v));
  }
  return mv;
}

Result<Vector> EncoderSet::EncodeModality(size_t slot,
                                          const Payload& payload) const {
  if (slot >= encoders_.size()) {
    return Status::OutOfRange("encoder slot out of range");
  }
  return encoders_[slot]->Encode(payload);
}

Result<Vector> PrecomputedEncoder::Encode(const Payload& payload) {
  if (payload.features.size() != dim_) {
    return Status::InvalidArgument(
        name_ + " expects a precomputed embedding of dimension " +
        std::to_string(dim_) + ", got " +
        std::to_string(payload.features.size()));
  }
  Vector out(payload.features.begin(), payload.features.end());
  if (normalize_) NormalizeVector(&out);
  return out;
}

Vector FuseJoint(const MultiVector& mv) {
  size_t dim = 0;
  for (const auto& p : mv.parts) {
    if (!p.empty()) {
      dim = p.size();
      break;
    }
  }
  Vector out(dim, 0.0f);
  size_t used = 0;
  for (const auto& p : mv.parts) {
    if (p.empty()) continue;
    if (p.size() != dim) continue;  // incompatible part; skip defensively
    for (size_t d = 0; d < dim; ++d) out[d] += p[d];
    ++used;
  }
  if (used > 0) {
    for (auto& x : out) x /= static_cast<float>(used);
    NormalizeVector(&out);
  }
  return out;
}

}  // namespace mqa
