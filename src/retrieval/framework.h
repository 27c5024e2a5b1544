#ifndef MQA_RETRIEVAL_FRAMEWORK_H_
#define MQA_RETRIEVAL_FRAMEWORK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/tombstones.h"
#include "common/topk.h"
#include "graph/index.h"
#include "graph/index_factory.h"
#include "vector/vector_store.h"
#include "vector/vector_types.h"

namespace mqa {

/// A multi-modal query after encoding: one embedding per modality slot.
/// An empty part means the modality is absent from this query (e.g. a
/// text-only round has no image part). `weights` optionally overrides the
/// framework's default modality weights (same length as the schema);
/// absent modalities are forced to weight 0 regardless.
struct RetrievalQuery {
  MultiVector modalities;
  std::vector<float> weights;
  /// Absolute deadline in the framework clock's epoch (0 = none). Flows
  /// from UserQuery through the executor; the sharded layer derives
  /// per-shard deadline slices from it.
  int64_t deadline_micros = 0;
};

/// What a retrieval round returns.
struct RetrievalResult {
  std::vector<Neighbor> neighbors;  ///< ascending distance
  SearchStats stats;
  double latency_ms = 0.0;
};

/// A pluggable multi-modal retrieval framework (the paper compares MUST,
/// MR and JE). Implementations own their derived vector stores and
/// indexes; the shared encoded corpus outlives them via shared_ptr.
/// Retrieve is const and re-entrant: a query owns what it writes (weights,
/// tally, results) and shares only the index and atomic or mutex-guarded
/// counters. Every other method is a write, never run during a Retrieve.
class RetrievalFramework {
 public:
  virtual ~RetrievalFramework() = default;

  /// Executes one retrieval round. Safe to call from concurrent threads.
  virtual Result<RetrievalResult> Retrieve(
      const RetrievalQuery& query, const SearchParams& params) const = 0;

  virtual std::string name() const = 0;

  /// The modality schema of queries this framework accepts.
  virtual const VectorSchema& schema() const = 0;

  /// Current default modality weights.
  virtual const std::vector<float>& weights() const = 0;

  /// Replaces the default modality weights (no index rebuild; the graph
  /// geometry stays as built, as in the real system's query-time weight
  /// adjustment).
  virtual Status SetWeights(std::vector<float> weights) = 0;

  /// Tombstones one corpus id: it stops appearing in results immediately,
  /// while its graph node keeps navigating traffic until compaction
  /// rewrites the index (deleting nodes eagerly would tear the navigation
  /// graph's connectivity). Default: deletion unsupported.
  virtual Status Remove(uint32_t id) {
    (void)id;
    return Status::Unimplemented("framework '" + name() +
                                 "' does not support deletion");
  }

  size_t num_tombstones() const { return tombstones_.count(); }

 protected:
  /// Bounds- and double-delete-checked tombstoning against the corpus
  /// size; concrete frameworks call this from their Remove override.
  Status MarkRemoved(uint32_t id, uint64_t corpus_size) {
    return tombstones_.Mark(id, corpus_size);
  }

  /// Composes the caller's filter with the tombstone check. Passes
  /// `params` through untouched when nothing is deleted, so the common
  /// path allocates no std::function.
  SearchParams WithoutTombstones(const SearchParams& params) const {
    if (!tombstones_.any()) return params;
    SearchParams filtered = params;
    const TombstoneSet* dead = &tombstones_;
    if (params.filter) {
      SearchFilter user = params.filter;
      filtered.filter = [dead, user](uint32_t id) {
        return !dead->IsDeleted(id) && user(id);
      };
    } else {
      filtered.filter = [dead](uint32_t id) { return !dead->IsDeleted(id); };
    }
    return filtered;
  }

  void ClearTombstones() { tombstones_.Clear(); }
  const TombstoneSet& tombstones() const { return tombstones_; }

 public:
  /// Installs the time source for `RetrievalResult::latency_ms` and
  /// deadline math (null = the real SystemClock). Tests install a
  /// MockClock so injected latency spikes are visible in retrieval
  /// timings; the sharded layer propagates its clock to every shard.
  virtual void SetClock(Clock* clock) { clock_ = clock; }

 protected:
  /// The effective time source (never null).
  Clock* clock() const { return clock_ != nullptr ? clock_ : SystemClock(); }

 private:
  Clock* clock_ = nullptr;
  TombstoneSet tombstones_;
};

/// Copies one modality block of every row into a standalone store.
Result<VectorStore> SlicePerModality(const VectorStore& multi, size_t slot);

/// Builds the joint-embedding store: every row becomes the normalized mean
/// of its modality blocks (requires all blocks to share one dimension).
Result<VectorStore> FuseJointStore(const VectorStore& multi);

/// Normalizes weights so that present entries are nonnegative and sum to
/// the number of modalities; zero-sum input becomes uniform.
std::vector<float> NormalizeWeights(std::vector<float> weights);

/// Cross-modal query projection: fills every absent modality part with the
/// normalized mean of the present parts. Valid when the encoders embed all
/// modalities into one aligned space (the sim-clip presets) — it is how a
/// text-only query searches image blocks ("transforms descriptive text
/// into visuals"). No-op when nothing is absent, nothing is present, or
/// the present parts disagree in dimension.
void CrossModalFill(MultiVector* query);

}  // namespace mqa

#endif  // MQA_RETRIEVAL_FRAMEWORK_H_
