#ifndef MQA_CORE_CONFIG_H_
#define MQA_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "graph/index.h"
#include "graph/index_factory.h"
#include "learning/weight_learner.h"
#include "shard/shard_options.h"
#include "storage/world.h"

namespace mqa {

class Clock;

/// Knobs of the resilient online pipeline (PR 4). Disabled by default so
/// that existing configurations keep their exact behaviour; when enabled,
/// the coordinator wraps the LLM in a ResilientLlm (retry + deadline +
/// circuit breaker), the query executor retries encoders and drops faulted
/// modalities, and degradations surface as flagged status events.
struct ResilienceOptions {
  bool enable = false;

  // LLM hop: retry policy + circuit breaker.
  int llm_max_attempts = 3;
  double llm_initial_backoff_ms = 10.0;
  double llm_backoff_multiplier = 2.0;
  double llm_max_backoff_ms = 1000.0;
  double llm_per_attempt_deadline_ms = 0.0;  ///< 0 = no per-attempt deadline
  double llm_overall_deadline_ms = 0.0;      ///< 0 = no overall deadline
  int breaker_failure_threshold = 5;
  double breaker_open_ms = 1000.0;
  int breaker_half_open_successes = 2;

  // Encoder hop: a smaller retry budget (encoding is cheap to re-run).
  int encoder_max_attempts = 2;
  double encoder_initial_backoff_ms = 1.0;

  /// Non-owning clock override so tests drive backoff and breaker
  /// cool-downs through a MockClock without ever sleeping. Null = the real
  /// SystemClock.
  Clock* clock = nullptr;
};

/// Knobs of the observability layer (metrics + per-turn tracing). Metrics
/// (MetricsRegistry::Global()) are always on — recording is a relaxed
/// atomic per event. Tracing allocates a small span tree per query turn;
/// it defaults on (the paper's status-monitoring panel needs it) and can
/// be disabled for benchmark runs chasing the last microsecond.
struct ObservabilityOptions {
  /// Build a Trace for every Coordinator::Ask (exposed on AnswerTurn).
  bool trace_turns = true;
  /// Also emit the human-readable per-turn breakdown (Trace::Render)
  /// through the StatusMonitor — the `--explain` view.
  bool explain_turns = false;
  /// Trace the offline build pipeline (Coordinator::Create).
  bool trace_build = true;
  /// Non-owning clock for trace timestamps; null = SystemClock. Tests use
  /// a MockClock so span durations are exact.
  Clock* clock = nullptr;
};

/// Knobs of the concurrent serving front end (src/server/): worker pool,
/// admission-controlled request queue and overload circuit breaker.
/// Defaults give a small but real server; tests set `clock` to a
/// MockClock for fully deterministic scheduling.
struct ServingOptions {
  size_t num_workers = 4;      ///< turn-executing worker threads (min 1)
  size_t queue_capacity = 64;  ///< bounded request queue (admission control)
  /// Per-turn deadline applied at admission when the query has none;
  /// 0 = no default deadline.
  double default_deadline_ms = 0.0;

  // Overload breaker at the admission door, fed only by overload signals
  // (queue-full sheds and deadline expiries).
  int breaker_failure_threshold = 8;
  double breaker_open_ms = 500.0;
  int breaker_half_open_successes = 2;

  /// Non-owning clock driving deadlines, queue-wait accounting and the
  /// breaker cool-down. Null = the real SystemClock.
  Clock* clock = nullptr;
};

/// Knobs of tombstone compaction (live deletion hygiene). Deletes mark
/// objects as tombstoned — cheap, but dead graph nodes keep absorbing
/// traversal work. Once the garbage ratio crosses the threshold, the
/// coordinator compacts: the knowledge base, encoded store and index are
/// rewritten without the dead entries. The compactor sits behind its own
/// circuit breaker so a persistently failing compaction degrades to
/// tombstone-only service instead of retry-storming.
struct CompactionOptions {
  bool auto_compact = true;     ///< compact opportunistically after deletes
  double garbage_ratio = 0.25;  ///< trigger: deleted / total above this
  /// Minimum spacing between auto-compactions (0 = none). Uses the
  /// resilience clock, so MockClock tests control the cadence.
  double min_interval_ms = 0.0;
  int breaker_failure_threshold = 3;
  double breaker_open_ms = 5000.0;
};

/// Everything the frontend's configuration panel edits, in one struct:
/// knowledge base, embedding, weight learning, index, retrieval and LLM
/// settings.
struct MqaConfig {
  // --- Knowledge base (Data Preprocessing) ---
  /// When false the system runs retrieval-free: answers come from the LLM
  /// alone (the paper's "external knowledge ingestion is optional").
  bool enable_knowledge_base = true;
  WorldConfig world;            ///< synthetic-world substrate parameters
  uint64_t corpus_size = 5000;  ///< objects to ingest
  std::string kb_name = "demo-kb";

  // --- Vector representation ---
  std::string encoder_preset = "sim-clip";
  uint32_t embedding_dim = 32;

  // --- Vector weight learning ---
  bool learn_weights = true;
  WeightLearnerConfig learner;
  uint64_t num_training_triplets = 2000;

  // --- Index construction ---
  IndexConfig index;

  // --- Retrieval ---
  std::string framework = "must";  ///< "must" | "mr" | "je"
  /// Fault-isolated sharded retrieval over `framework` (src/shard/):
  /// partitioned corpus, fan-out with per-shard breakers, deadline slices
  /// and a partial-result quorum. Off by default (single index, as before).
  ShardOptions shard;
  SearchParams search;             ///< default k and beam width
  /// Resolve vague follow-ups ("show me more") against dialogue history
  /// before retrieval (the intelligent multi-modal search procedure).
  bool rewrite_vague_queries = true;

  // --- Answer generation ---
  std::string llm = "sim-llm";  ///< "sim-llm" | "none"
  float temperature = 0.2f;

  // --- Resilience (fault handling in the online pipeline) ---
  ResilienceOptions resilience;

  // --- Live deletion & tombstone compaction ---
  CompactionOptions compaction;

  // --- Observability (metrics + tracing) ---
  ObservabilityOptions observability;

  // --- Serving (multi-session server) ---
  ServingOptions serving;

  /// SIMD tier of the distance kernels: "auto" (detect via CPUID),
  /// "scalar", "avx2" or "avx512". Requests above what the CPU supports
  /// clamp down with a logged note; the MQA_SIMD_LEVEL environment
  /// variable is consulted when this is left at "auto".
  std::string simd_level = "auto";

  uint64_t seed = 42;
};

}  // namespace mqa

#endif  // MQA_CORE_CONFIG_H_
