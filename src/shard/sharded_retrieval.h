#ifndef MQA_SHARD_SHARDED_RETRIEVAL_H_
#define MQA_SHARD_SHARDED_RETRIEVAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/circuit_breaker.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "graph/pipeline.h"
#include "retrieval/factory.h"
#include "retrieval/framework.h"
#include "shard/shard_options.h"

namespace mqa {

/// How one shard's participation in one fan-out ended.
enum class ShardOutcomeKind {
  kOk,           ///< responded in time; its top-k entered the merge
  kError,        ///< the attempt failed
  kTimeout,      ///< responded after its deadline slice; result dropped
  kBreakerOpen,  ///< skipped outright: its circuit breaker is open
};

const char* ShardOutcomeKindToString(ShardOutcomeKind kind);

/// Per-shard record of one fan-out (tests and benches assert on these
/// instead of on process-global metrics).
struct ShardOutcome {
  ShardOutcomeKind kind = ShardOutcomeKind::kOk;
  double latency_ms = 0.0;  ///< the attempt's elapsed time on the clock
  Status status;            ///< detail for kError / kBreakerOpen
};

struct FanoutReport {
  std::vector<ShardOutcome> shards;  ///< indexed by shard id
  size_t ok_count = 0;
};

/// Fault-isolated sharded retrieval: a RetrievalFramework over N per-shard
/// RetrievalFramework instances (ROADMAP item 3, the Stellar fan-out
/// shape). The encoded corpus is partitioned (round-robin or hash) into
/// per-shard stores; per-shard indexes build concurrently at Create time;
/// each Retrieve fans the query out across shards on an internal thread
/// pool and merges the per-shard top-k into a global top-k.
///
/// Robustness model — per-shard failure is a bounded, observable event:
///  * Fault domains: every shard attempt passes the FaultInjector point
///    `shard/<id>/search` and its own CircuitBreaker; a repeatedly failing
///    shard is skipped (not retried) while healthy shards keep serving.
///  * Partial-result quorum: per-shard deadline slices are derived from
///    the query deadline, and an attempt whose elapsed time exceeds its
///    slice is dropped; a query succeeds when >= quorum shards respond in
///    time. Missing shards surface as stats.shards_ok < shards_total (a
///    degradation note upstream), never as silently truncated results.
///
/// Thread-safety: like every RetrievalFramework, Retrieve is const and
/// re-entrant. Concurrent fan-outs share the pool, the (re-entrant) shard
/// frameworks and the breakers (mutex-guarded); per-shard outcomes go to
/// the caller's FanoutReport. A fan-out is one ThreadPool::ParallelFor
/// over the shards: it returns once every shard attempt has finished, and
/// rethrows to the caller an exception escaping one (a throwing filter,
/// say).
class ShardedRetrieval : public RetrievalFramework {
 public:
  /// Partitions `corpus`, builds one `framework_name` framework per shard
  /// (concurrently, on a build-scoped pool) and assembles the fan-out
  /// layer. `options.clock` (null = SystemClock) is captured for deadline
  /// slices, latency measurement and breaker cool-downs. `report`
  /// (optional) receives aggregate build statistics.
  static Result<std::unique_ptr<ShardedRetrieval>> Create(
      const std::string& framework_name,
      std::shared_ptr<const VectorStore> corpus, std::vector<float> weights,
      const IndexConfig& index_config, const ShardOptions& options,
      BuildReport* report = nullptr);

  /// Fans out, merges, and enforces the quorum. Returns kDeadlineExceeded
  /// when the query's deadline already passed, kUnavailable when fewer
  /// than quorum shards responded; otherwise the merged result, with
  /// stats.shards_total/shards_ok recording coverage.
  Result<RetrievalResult> Retrieve(const RetrievalQuery& query,
                                   const SearchParams& params) const override {
    return Retrieve(query, params, nullptr);
  }

  /// Retrieve, also filling `report` (when non-null) with this fan-out's
  /// per-shard accounting, quorum met or not (untouched when the deadline
  /// had passed before anything was fanned out).
  Result<RetrievalResult> Retrieve(const RetrievalQuery& query,
                                   const SearchParams& params,
                                   FanoutReport* report) const;

  std::string name() const override { return "sharded:" + inner_name_; }
  const VectorSchema& schema() const override { return corpus_->schema(); }
  const std::vector<float>& weights() const override { return weights_; }
  Status SetWeights(std::vector<float> weights) override;

  /// Propagates the clock to every shard framework. Breaker cool-downs
  /// keep the Create-time options.clock (breakers are not re-clockable),
  /// so configure the clock through ShardOptions when testing breakers.
  void SetClock(Clock* clock) override;

  size_t num_shards() const { return shards_.size(); }
  size_t quorum() const { return options_.quorum; }

  /// Tombstones one *global* corpus id: marked here (the merge skips it
  /// even if a shard raced ahead) and routed to the owning shard's
  /// framework, which excludes the local row from its searches.
  Status Remove(uint32_t id) override;

  /// True when every shard's framework can ingest live (MUST over a
  /// mutable index kind).
  bool SupportsLiveIngestion() const;

  /// Live ingestion under sharding: after the caller appended one encoded
  /// row to the shared corpus store, routes it to the shard with the
  /// fewest *live* objects (so deletes re-balance future inserts), appends
  /// the row to that shard's store and links it into the shard's index.
  Status IngestAppended(const GraphBuildConfig& config);

  /// Number of live (non-tombstoned) objects on one shard.
  size_t shard_live_size(size_t shard) const {
    return shards_[shard]->global_ids.size() -
           shards_[shard]->framework->num_tombstones();
  }

  /// Local->global id map of one shard (test/bench introspection).
  const std::vector<uint32_t>& shard_global_ids(size_t shard) const {
    return shards_[shard]->global_ids;
  }

  BreakerState shard_breaker_state(size_t shard) const {
    return shards_[shard]->breaker->state();
  }

 private:
  /// One fault domain: an independent slice of the corpus with its own
  /// framework and breaker.
  struct Shard {
    std::shared_ptr<VectorStore> store;  ///< mutable: live ingestion appends
    std::vector<uint32_t> global_ids;  ///< local row id -> corpus id
    std::unique_ptr<RetrievalFramework> framework;
    std::unique_ptr<CircuitBreaker> breaker;
    std::string fault_point;  ///< "shard/<id>/search"
  };

  /// Everything one shard contributes to one fan-out. Each slot is
  /// written by exactly one pool task and read by the fan-out caller only
  /// after ParallelFor returns (its futures publish the writes).
  struct ShardAttempt {
    ShardOutcome outcome;
    RetrievalResult result;  ///< meaningful when outcome.kind == kOk
  };

  ShardedRetrieval() = default;

  /// Runs one shard's gate -> attempt -> classify sequence. Never touches
  /// state shared with other shards.
  void RunShardAttempt(size_t shard_index, const RetrievalQuery& query,
                       const SearchParams& params, int64_t budget_micros,
                       ShardAttempt* out) const;

  ShardOptions options_;
  std::string inner_name_;  ///< the per-shard framework name ("must", ...)
  std::shared_ptr<const VectorStore> corpus_;
  std::vector<float> weights_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Global id -> (shard index, local row id); grows with live ingestion.
  std::vector<std::pair<uint32_t, uint32_t>> owner_;
  std::unique_ptr<ThreadPool> fanout_pool_;

  // Aggregate metrics (process-global; resolved once at Create).
  Counter* fanouts_ = nullptr;
  Counter* degraded_ = nullptr;         ///< merged with missing shards
  Counter* quorum_failures_ = nullptr;  ///< fan-outs below quorum
  Counter* breaker_skips_ = nullptr;
  Counter* shard_errors_ = nullptr;
  Counter* shard_timeouts_ = nullptr;
  Histogram* fanout_ms_ = nullptr;
};

}  // namespace mqa

#endif  // MQA_SHARD_SHARDED_RETRIEVAL_H_
