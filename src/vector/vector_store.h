#ifndef MQA_VECTOR_VECTOR_STORE_H_
#define MQA_VECTOR_VECTOR_STORE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/result.h"
#include "vector/multi_distance.h"
#include "vector/simd/simd.h"
#include "vector/vector_types.h"

namespace mqa {

/// Row-major flat storage for N fixed-schema (multi-)vectors. Ids are dense
/// [0, size).
///
/// Layout: each object's per-modality segments are contiguous (one linear
/// stream per weighted multi-distance call), rows start 64-byte aligned, and
/// the in-memory stride is the logical row dimension rounded up to 16 floats
/// (one cache line) so SIMD kernels and prefetches never straddle rows. The
/// pad floats are zero and never enter any distance. The *serialized* format
/// is unchanged — Save/Load write and read logical rows — so snapshots from
/// the pre-padding layout load bit-identically (guarded by the layout
/// migration test).
class VectorStore {
 public:
  /// In-memory row stride granularity, in floats (64 bytes).
  static constexpr size_t kRowAlignFloats =
      kSimdAlignment / sizeof(float);

  explicit VectorStore(VectorSchema schema)
      : schema_(std::move(schema)), stride_(PaddedDim(schema_.TotalDim())) {}

  /// Appends a flattened vector; returns its id. The vector length must be
  /// schema().TotalDim().
  Result<uint32_t> Add(const Vector& flat);

  /// Appends a structured multi-vector (flattened internally).
  Result<uint32_t> AddMultiVector(const MultiVector& mv);

  /// Pointer to row `id` (64-byte aligned). Precondition: id < size().
  const float* data(uint32_t id) const {
    return flat_.data() + static_cast<size_t>(id) * stride_;
  }

  /// Copies row `id` out as a Vector (logical dims only, no padding).
  Vector Row(uint32_t id) const {
    const float* p = data(id);
    return Vector(p, p + row_dim());
  }

  uint32_t size() const { return static_cast<uint32_t>(count_); }
  size_t row_dim() const { return schema_.TotalDim(); }
  /// Floats between consecutive rows in memory (>= row_dim()).
  size_t row_stride() const { return stride_; }
  const VectorSchema& schema() const { return schema_; }

  void Reserve(size_t n) { flat_.reserve(n * stride_); }

  /// Binary serialization (schema + logical rows; padding is not written).
  Status Save(std::ostream& out) const;
  static Result<VectorStore> Load(std::istream& in);

 private:
  static size_t PaddedDim(size_t dim) {
    return (dim + kRowAlignFloats - 1) / kRowAlignFloats * kRowAlignFloats;
  }

  VectorSchema schema_;
  size_t stride_;
  AlignedFloatVector flat_;
  size_t count_ = 0;
};

/// Query-to-stored-vector distance abstraction used by all graph searches.
/// The query-side methods are const and safe to call from concurrent
/// searches: everything one search writes lives in its own
/// DistanceContext (null = default weights, not counted), and the search
/// hands its finished tally to AddTally once, so a shared computer is
/// written once per search, not once per distance.
class DistanceComputer {
 public:
  virtual ~DistanceComputer() = default;

  /// Exact distance from query `q` (flattened, row_dim floats) to row `id`.
  virtual float Distance(const float* q, uint32_t id,
                         DistanceContext* ctx) const = 0;

  /// Adds one finished search's tally to the running statistics.
  virtual void AddTally(const DistanceTally& tally) const { (void)tally; }

  /// Hints that row `id` will be scored soon.
  virtual void Prefetch(uint32_t id) const { (void)id; }

  /// Exact distance between two stored rows (used at build time; not
  /// counted).
  virtual float DistanceBetween(uint32_t a, uint32_t b) const = 0;

  /// DistanceBetween(from, ids[i]) into out[i], bit for bit, for every i:
  /// the one-to-many form the build loops score a candidate list with.
  /// The default is the per-pair loop; a computer with a batched kernel
  /// overrides it.
  virtual void DistancesBetween(uint32_t from, std::span<const uint32_t> ids,
                                float* out) const {
    for (size_t i = 0; i < ids.size(); ++i) {
      out[i] = DistanceBetween(from, ids[i]);
    }
  }

  virtual size_t dim() const = 0;
  virtual uint32_t size() const = 0;
};

/// Single-vector distance over a store with a standard metric — the path
/// used by JE and by per-modality MR indexes (no weights: it ignores
/// DistanceContext::weighted).
class FlatDistanceComputer : public DistanceComputer {
 public:
  FlatDistanceComputer(const VectorStore* store, Metric metric)
      : store_(store), metric_(metric) {}

  float Distance(const float* q, uint32_t id,
                 DistanceContext* ctx) const override {
    (void)ctx;
    return ComputeDistance(metric_, q, store_->data(id), store_->row_dim());
  }
  float DistanceBetween(uint32_t a, uint32_t b) const override {
    return ComputeDistance(metric_, store_->data(a), store_->data(b),
                           store_->row_dim());
  }
  void Prefetch(uint32_t id) const override {
    const char* row = reinterpret_cast<const char*>(store_->data(id));
    const size_t bytes = store_->row_dim() * sizeof(float);
    for (size_t b = 0; b < bytes; b += kSimdAlignment) PrefetchRead(row + b);
  }
  size_t dim() const override { return store_->row_dim(); }
  uint32_t size() const override { return store_->size(); }

 private:
  const VectorStore* store_;
  Metric metric_;
};

/// Weighted multi-vector distance — the MUST path. Every query distance is
/// exact. With a context it is one unbounded WeightedMultiDistance::Pruned
/// call, through the context's per-query distance when it has one and the
/// default one otherwise, counted in the context's tally as full; the
/// searches' tallies accumulate into DistanceStats. Without a context it
/// is the default distance's Exact, uncounted.
class MultiVectorDistanceComputer : public DistanceComputer {
 public:
  MultiVectorDistanceComputer(const VectorStore* store,
                              WeightedMultiDistance dist)
      : store_(store), dist_(std::move(dist)) {}

  float Distance(const float* q, uint32_t id,
                 DistanceContext* ctx) const override {
    const float* row = store_->data(id);
    if (ctx == nullptr) return dist_.Exact(q, row);
    const WeightedMultiDistance& d =
        ctx->weighted != nullptr ? *ctx->weighted : dist_;
    return d.Pruned(q, row, kNoBound, &ctx->tally);
  }

  void AddTally(const DistanceTally& tally) const override {
    stats_.Add(tally);
  }

  float DistanceBetween(uint32_t a, uint32_t b) const override {
    return dist_.Exact(store_->data(a), store_->data(b));
  }

  /// One gathered DistanceKernels::wl2sq_rows call over the ids' rows.
  void DistancesBetween(uint32_t from, std::span<const uint32_t> ids,
                        float* out) const override {
    dist_.ExactBatch(store_->data(from), store_->data(0),
                     store_->row_stride(), ids.data(), ids.size(), out);
  }

  void Prefetch(uint32_t id) const override {
    const char* row = reinterpret_cast<const char*>(store_->data(id));
    const size_t bytes = store_->row_dim() * sizeof(float);
    for (size_t b = 0; b < bytes; b += kSimdAlignment) PrefetchRead(row + b);
  }

  size_t dim() const override { return store_->row_dim(); }
  uint32_t size() const override { return store_->size(); }

  const DistanceStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }
  const WeightedMultiDistance& weighted_distance() const { return dist_; }

  /// Replaces the default weights, which builds, live inserts and searches
  /// without their own distance score with. A write: never during a search.
  Status SetWeights(std::vector<float> w) {
    MQA_ASSIGN_OR_RETURN(dist_,
                         WeightedMultiDistance::Create(dist_.schema(),
                                                       std::move(w)));
    return Status::OK();
  }

 private:
  const VectorStore* store_;
  WeightedMultiDistance dist_;
  mutable DistanceStats stats_;
};

}  // namespace mqa

#endif  // MQA_VECTOR_VECTOR_STORE_H_
