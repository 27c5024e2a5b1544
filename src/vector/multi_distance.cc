#include "vector/multi_distance.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "vector/simd/simd.h"

namespace mqa {

Result<WeightedMultiDistance> WeightedMultiDistance::Create(
    VectorSchema schema, std::vector<float> weights) {
  if (schema.num_modalities() == 0) {
    return Status::InvalidArgument("schema has no modalities");
  }
  if (weights.size() != schema.num_modalities()) {
    return Status::InvalidArgument("weights size does not match schema");
  }
  for (float w : weights) {
    if (w < 0.0f || !std::isfinite(w)) {
      return Status::InvalidArgument("modality weights must be finite and >= 0");
    }
  }
  return WeightedMultiDistance(std::move(schema), std::move(weights));
}

WeightedMultiDistance::WeightedMultiDistance(VectorSchema schema,
                                             std::vector<float> weights)
    : schema_(std::move(schema)), weights_(std::move(weights)) {
  BuildScan();
}

float WeightedMultiDistance::Exact(const float* q, const float* o) const {
  return ActiveKernels().wl2sq(q, o, scan_offsets_.data(), scan_dims_.data(),
                               scan_weights_.data(), scan_weights_.size(),
                               kNoBound, nullptr);
}

void WeightedMultiDistance::ExactBatch(const float* q, const float* base,
                                       size_t stride, const uint32_t* ids,
                                       size_t n, float* out) const {
  ActiveKernels().wl2sq_rows(q, base, stride, ids, n, scan_offsets_.data(),
                             scan_dims_.data(), scan_weights_.data(),
                             scan_weights_.size(), out);
}

float WeightedMultiDistance::Pruned(const float* q, const float* o,
                                    float bound, DistanceTally* tally) const {
  size_t segments = 0;
  const float d = ActiveKernels().wl2sq(
      q, o, scan_offsets_.data(), scan_dims_.data(), scan_weights_.data(),
      scan_weights_.size(), bound, &segments);
  if (tally != nullptr) {
    for (size_t s = 0; s < segments; ++s) tally->dims_scanned += scan_dims_[s];
    // The kernel returns early only at a boundary between segments, so an
    // abandoned call always skipped work.
    if (segments < scan_dims_.size()) {
      ++tally->pruned_computations;
    } else {
      ++tally->full_computations;
    }
  }
  return d;
}

void WeightedMultiDistance::BuildScan() {
  // Heaviest weight first: the largest contributions accumulate earliest,
  // so the running prefix crosses the abandon bound as soon as possible.
  std::vector<size_t> order;
  for (size_t m = 0; m < weights_.size(); ++m) {
    if (weights_[m] != 0.0f) order.push_back(m);
  }
  std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return weights_[a] > weights_[b];
  });
  for (size_t m : order) {
    scan_offsets_.push_back(schema_.OffsetOf(m));
    scan_dims_.push_back(schema_.dims[m]);
    scan_weights_.push_back(weights_[m]);
  }
}

Result<Vector> FlattenMultiVector(const VectorSchema& schema,
                                  const MultiVector& mv) {
  if (mv.num_modalities() != schema.num_modalities()) {
    return Status::InvalidArgument("multi-vector modality count mismatch");
  }
  Vector flat(schema.TotalDim());
  size_t off = 0;
  for (size_t m = 0; m < schema.num_modalities(); ++m) {
    if (mv.parts[m].size() != schema.dims[m]) {
      return Status::InvalidArgument("modality dimension mismatch");
    }
    std::memcpy(flat.data() + off, mv.parts[m].data(),
                schema.dims[m] * sizeof(float));
    off += schema.dims[m];
  }
  return flat;
}

}  // namespace mqa
