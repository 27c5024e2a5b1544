#ifndef MQA_SHARD_SHARD_OPTIONS_H_
#define MQA_SHARD_SHARD_OPTIONS_H_

#include <cstddef>
#include <string>

namespace mqa {

class Clock;

/// Knobs of the fault-isolated sharded retrieval layer (src/shard/).
/// Disabled by default: the coordinator builds the single-index framework
/// exactly as before. When enabled, the encoded corpus is partitioned into
/// `num_shards` independent per-shard frameworks; queries fan out on a
/// thread pool and merge per-shard top-k, with per-shard circuit breakers,
/// deadline slices and a partial-result quorum bounding the blast radius
/// of a slow or faulty shard.
struct ShardOptions {
  bool enable = false;
  size_t num_shards = 4;  ///< clamped to the corpus size at build time

  /// Minimum shards that must respond in time for a query to succeed
  /// (clamped to [1, num_shards]). Fewer responders => kUnavailable; more
  /// but not all => success with a shard-coverage degradation note.
  size_t quorum = 1;

  /// Corpus partitioning: "round-robin" (id % num_shards — balanced by
  /// construction) or "hash" (multiplicative id hash — models arbitrary
  /// placement).
  std::string partition = "round-robin";

  /// Fraction of the query's remaining deadline budget granted to each
  /// shard attempt (per-shard deadline slice). Only applies to queries
  /// carrying a deadline.
  double deadline_fraction = 0.5;

  /// Fan-out pool width (0 = min(num_shards, hardware)). Chaos tests set 1
  /// so shard attempts execute sequentially and MockClock time is exact.
  size_t fanout_threads = 0;

  // Per-shard circuit breaker: a repeatedly failing shard is skipped (not
  // retried) while its cool-down runs, so healthy shards keep serving.
  int breaker_failure_threshold = 5;
  double breaker_open_ms = 1000.0;
  int breaker_half_open_successes = 2;

  /// Non-owning clock driving deadline slices, latency measurement and
  /// breaker cool-downs. Null = the real SystemClock.
  Clock* clock = nullptr;
};

}  // namespace mqa

#endif  // MQA_SHARD_SHARD_OPTIONS_H_
