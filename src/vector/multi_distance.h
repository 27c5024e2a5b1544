#ifndef MQA_VECTOR_MULTI_DISTANCE_H_
#define MQA_VECTOR_MULTI_DISTANCE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "vector/distance.h"
#include "vector/vector_types.h"

namespace mqa {

/// Counters for the computational-pruning ablation (MUST-E4). Accumulated by
/// the incremental multi-vector scan.
///
/// The counters are atomic so that concurrent searches sharing one
/// DistanceComputer (the serving path: many queries, one index) stay
/// TSan-clean; increments are relaxed, so cross-counter totals read during
/// a concurrent run are approximate and only exact once searches quiesce.
struct DistanceStats {
  std::atomic<uint64_t> full_computations{0};    ///< computed to completion
  std::atomic<uint64_t> pruned_computations{0};  ///< abandoned early
  std::atomic<uint64_t> dims_scanned{0};  ///< float components visited
  /// Always 0: nothing increments it since the bit-sketch prefilter was
  /// removed. Kept because the perfbench report still reads it for
  /// `vector.sketch_reject_frac`, a metric its BENCHMARK.json declares.
  std::atomic<uint64_t> sketch_rejects{0};

  DistanceStats() = default;
  DistanceStats(const DistanceStats& other) { CopyFrom(other); }
  DistanceStats& operator=(const DistanceStats& other) {
    CopyFrom(other);
    return *this;
  }

  void Reset() {
    full_computations = 0;
    pruned_computations = 0;
    dims_scanned = 0;
    sketch_rejects = 0;
  }

  uint64_t TotalComputations() const {
    return full_computations + pruned_computations;
  }

 private:
  void CopyFrom(const DistanceStats& other) {
    full_computations.store(other.full_computations.load());
    pruned_computations.store(other.pruned_computations.load());
    dims_scanned.store(other.dims_scanned.load());
    sketch_rejects.store(other.sketch_rejects.load());
  }
};

/// Weighted multi-vector distance (the MUST similarity):
///
///   D(q, o) = sum_m w_m * d(q_m, o_m)
///
/// with d = squared L2 per modality. Because every term is nonnegative, the
/// running prefix sum is a lower bound on the final value, which enables
/// *incremental scanning*: modality blocks are accumulated in order and the
/// computation is abandoned as soon as the prefix exceeds a caller-supplied
/// bound (the current top-k worst distance during search).
class WeightedMultiDistance {
 public:
  /// `weights` must have one nonnegative entry per modality in `schema`.
  static Result<WeightedMultiDistance> Create(VectorSchema schema,
                                              std::vector<float> weights);

  /// Exact distance between two flattened multi-vectors (length
  /// schema.TotalDim() each).
  float Exact(const float* q, const float* o) const;

  /// Exact distances from `q` to `n` candidate rows laid out at `base`,
  /// `base + stride`, ... (a contiguous VectorStore/pivot-table scan).
  /// Row i's result lands in out[i]. Each row goes through the same Exact
  /// kernel — results are bitwise identical to n individual calls — while
  /// the next row is prefetched, so linear rerank scans hide memory
  /// latency behind the arithmetic.
  void ExactBatch(const float* q, const float* base, size_t stride, size_t n,
                  float* out) const;

  /// Distance with early abandonment at `bound`. Returns a value > bound
  /// (not necessarily exact) when abandoned. `stats` may be null.
  float Pruned(const float* q, const float* o, float bound,
               DistanceStats* stats) const;

  const VectorSchema& schema() const { return schema_; }
  const std::vector<float>& weights() const { return weights_; }

  /// Replaces the modality weights (e.g. after weight learning or a user
  /// override at query time). Size must match; values must be >= 0.
  Status SetWeights(std::vector<float> weights);

 private:
  WeightedMultiDistance(VectorSchema schema, std::vector<float> weights);

  /// Re-sorts scan_order_ by descending weight.
  void RecomputeScanOrder();

  VectorSchema schema_;
  std::vector<float> weights_;
  std::vector<size_t> offsets_;  // modality start offsets in the flat layout
  std::vector<size_t> scan_order_;  // modality indices, heaviest first
};

/// Flattens a MultiVector into one contiguous buffer in schema order.
/// Returns InvalidArgument if dimensions do not match the schema.
Result<Vector> FlattenMultiVector(const VectorSchema& schema,
                                  const MultiVector& mv);

/// Scales each modality block of a flattened vector by sqrt(w_m), in place.
/// After this transform, *plain* L2 on the concatenated vectors equals the
/// weighted multi-vector distance — the trick that lets MUST reuse a
/// single-vector navigation graph for multi-modal search.
Status ApplyWeightScaling(const VectorSchema& schema,
                          const std::vector<float>& weights, float* flat);

}  // namespace mqa

#endif  // MQA_VECTOR_MULTI_DISTANCE_H_
