#ifndef MQA_CORE_QUERY_EXECUTOR_H_
#define MQA_CORE_QUERY_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/retry.h"
#include "encoder/encoder.h"
#include "llm/prompt_builder.h"
#include "retrieval/framework.h"
#include "storage/knowledge_base.h"

namespace mqa {

/// What a user submits in one dialogue round: free text, optionally a
/// previously returned result they clicked (feedback loop), optionally an
/// uploaded image, and optionally explicit modality weights.
struct UserQuery {
  std::string text;
  std::optional<uint64_t> selected_object;  ///< id of a clicked result
  std::optional<Payload> uploaded_image;    ///< image-assisted input
  std::vector<float> weight_override;       ///< empty = framework default
  /// Optional attribute constraint: only objects passing the predicate may
  /// be returned (e.g. a category filter from the configuration panel).
  std::function<bool(const Object&)> object_filter;
  /// Absolute deadline in the executor clock's epoch (0 = none). Set by
  /// the serving layer; the executor sheds expired queries and passes the
  /// deadline on to the framework.
  int64_t deadline_micros = 0;
};

/// Retrieval output enriched with displayable descriptions.
struct QueryOutcome {
  RetrievalResult retrieval;
  std::vector<RetrievedItem> items;  ///< aligned with retrieval.neighbors
  /// Human-readable degradation notes (dropped modalities, partial disk
  /// results). Empty on a fully healthy round.
  std::vector<std::string> degradation;
};

/// Cumulative search counts of a QueryExecutor. Each search is its own
/// batch, so both fields count the executor's framework searches. The name
/// is the one the cross-query batcher used; it stays because benchmark code
/// reads it through Server::search_batcher().
struct BatcherStats {
  uint64_t batches = 0;
  uint64_t items = 0;
};

/// The Query Execution component: encodes a user query into per-modality
/// vectors (text via the text encoder; image via the image encoder from
/// either the upload or the selected previous result — the dotted feedback
/// arrow in Figure 2) and runs the configured retrieval framework.
///
/// Execute may be called from concurrent threads: the encoders hold no
/// mutable state, and RetrievalFramework::Retrieve is re-entrant, so every
/// turn searches on its own thread at the same time as the others.
class QueryExecutor {
 public:
  /// All pointers are borrowed and must outlive the executor.
  QueryExecutor(const KnowledgeBase* kb, const EncoderSet* encoders,
                const RetrievalFramework* framework);

  /// Enables degraded-mode encoding: transient encoder failures are
  /// retried under `retry` (driven by `clock`; null = SystemClock) and a
  /// modality whose encoder stays down is *dropped* from the query — the
  /// surviving modalities carry the search (their weights renormalize
  /// inside the framework). Only when every requested modality fails does
  /// Execute return kUnavailable.
  void EnableResilience(const RetryPolicy& retry, Clock* clock = nullptr);

  /// Overrides the clock used for deadline checks (and, when resilience
  /// is on, encoder retry backoff). The serving layer installs its own
  /// clock so queue deadlines and executor deadlines share an epoch.
  void SetClock(Clock* clock) { clock_ = clock; }

  /// Executes one round. Fails with kInvalidArgument, before any encoder
  /// runs, when `weight_override` is malformed (a length other than the
  /// schema's, or a negative or non-finite entry); fails when the query
  /// carries no usable modality or references an unknown object; and sheds
  /// with kDeadlineExceeded when the query's deadline has already passed.
  Result<QueryOutcome> Execute(const UserQuery& query,
                               const SearchParams& params);

  /// Encodes without searching (exposed for tests and benches).
  /// `degradation` (optional) receives a note per modality dropped due to
  /// encoder failure; without resilience enabled, encoder errors simply
  /// propagate and no notes are produced.
  Result<RetrievalQuery> EncodeUserQuery(
      const UserQuery& query,
      std::vector<std::string>* degradation = nullptr) const;

  /// Framework searches issued so far (one relaxed atomic count).
  BatcherStats stats() const {
    const uint64_t n = searches_.load(std::memory_order_relaxed);
    return BatcherStats{n, n};
  }

 private:
  /// First schema slot of the given type, or nullopt.
  std::optional<size_t> SlotOfType(ModalityType type) const;

  /// One encoder call, retried under the resilience policy when enabled.
  Result<Vector> EncodeSlot(size_t slot, const Payload& payload) const;

  const KnowledgeBase* kb_;
  const EncoderSet* encoders_;
  const RetrievalFramework* const framework_;
  std::atomic<uint64_t> searches_{0};

  Counter* const executions_;
  Counter* const hops_;
  Counter* const dist_comps_;
  Counter* const degraded_;
  bool resilience_ = false;
  RetryPolicy encoder_retry_;
  Clock* clock_ = nullptr;
};

/// A one-line human-readable description of an object (used in prompts
/// and in the QA panel's result list).
std::string DescribeObject(const Object& object);

}  // namespace mqa

#endif  // MQA_CORE_QUERY_EXECUTOR_H_
