#ifndef MQA_VECTOR_MULTI_DISTANCE_H_
#define MQA_VECTOR_MULTI_DISTANCE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "vector/distance.h"
#include "vector/vector_types.h"

namespace mqa {

/// Plain counters for the distance calls of one search (or one build-time
/// search). A search counts into its own tally and adds it to the shared
/// DistanceStats once, when it finishes, so concurrent searches and build
/// threads never bounce a counter cache line between cores.
struct DistanceTally {
  uint64_t full_computations = 0;
  uint64_t pruned_computations = 0;
  uint64_t dims_scanned = 0;
};

/// Counters for the computational-pruning ablation (MUST-E4). Accumulated by
/// the incremental multi-vector scan: each search adds its DistanceTally
/// once (three relaxed atomic adds), so the totals are exact once searches
/// quiesce, and a total read during a concurrent run lags by the searches
/// still in flight.
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

  /// Folds one search's tally in.
  void Add(const DistanceTally& tally) {
    full_computations.fetch_add(tally.full_computations,
                                std::memory_order_relaxed);
    pruned_computations.fetch_add(tally.pruned_computations,
                                  std::memory_order_relaxed);
    dims_scanned.fetch_add(tally.dims_scanned, std::memory_order_relaxed);
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
/// *incremental scanning*: modality blocks are accumulated heaviest weight
/// first and the computation is abandoned as soon as the prefix exceeds a
/// caller-supplied bound (the current top-k worst distance during search).
/// Every entry point runs the same scan (heaviest weight first, zero
/// weights left out) through the fused kernel, so a Pruned call that does
/// not abandon, and each row of ExactBatch, return Exact's value bit for
/// bit.
class WeightedMultiDistance {
 public:
  /// `weights` must have one nonnegative entry per modality in `schema`.
  static Result<WeightedMultiDistance> Create(VectorSchema schema,
                                              std::vector<float> weights);

  /// Exact distance between two flattened multi-vectors (length
  /// schema.TotalDim() each).
  float Exact(const float* q, const float* o) const;

  /// Exact distances from `q` to `n` rows of a table at `base` with rows
  /// `stride` floats apart: row ids[i] (a gather, e.g. a build loop's
  /// candidates), or row i when `ids` is null (a contiguous scan, e.g. the
  /// disk index's pivot table). Row i's result lands in out[i], bitwise
  /// equal to Exact on that row: one DistanceKernels::wl2sq_rows call,
  /// which scores rows four per pass.
  void ExactBatch(const float* q, const float* base, size_t stride,
                  const uint32_t* ids, size_t n, float* out) const;

  /// Distance with early abandonment at `bound`. Returns a value > bound
  /// (a prefix of the exact sum) when abandoned, and Exact's value
  /// otherwise. The call is counted in `tally`, which may be null.
  float Pruned(const float* q, const float* o, float bound,
               DistanceTally* tally) const;

  const VectorSchema& schema() const { return schema_; }
  const std::vector<float>& weights() const { return weights_; }

 private:
  WeightedMultiDistance(VectorSchema schema, std::vector<float> weights);

  /// Builds the scan arrays from weights_.
  void BuildScan();

  VectorSchema schema_;
  std::vector<float> weights_;
  // The kernel's scan, one entry per nonzero-weight modality, heaviest
  // first: start offset in the flat layout, dims, weight.
  std::vector<size_t> scan_offsets_;
  std::vector<uint32_t> scan_dims_;
  std::vector<float> scan_weights_;
};

/// What one search carries into each of its distance calls: the query's own
/// weighted distance (null = the computer's default; it must use the
/// computer's schema) and the search's tally, which the search hands to
/// DistanceComputer::AddTally once. Each search owns its context.
struct DistanceContext {
  const WeightedMultiDistance* weighted = nullptr;
  DistanceTally tally;
};

/// Flattens a MultiVector into one contiguous buffer in schema order.
/// Returns InvalidArgument if dimensions do not match the schema.
Result<Vector> FlattenMultiVector(const VectorSchema& schema,
                                  const MultiVector& mv);

}  // namespace mqa

#endif  // MQA_VECTOR_MULTI_DISTANCE_H_
