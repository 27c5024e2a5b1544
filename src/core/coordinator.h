#ifndef MQA_CORE_COORDINATOR_H_
#define MQA_CORE_COORDINATOR_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/circuit_breaker.h"
#include "common/trace.h"
#include "core/answer_generator.h"
#include "core/config.h"
#include "core/query_executor.h"
#include "core/represent.h"
#include "core/status_monitor.h"
#include "encoder/sim_encoders.h"
#include "llm/query_rewriter.h"
#include "retrieval/factory.h"

namespace mqa {

/// One completed dialogue round as returned to the frontend.
struct AnswerTurn {
  std::string answer;                ///< the conversational reply
  std::vector<RetrievedItem> items;  ///< retrieved results (may be empty)
  RetrievalResult retrieval;         ///< raw retrieval telemetry
  /// True when any stage of this round ran in degraded mode (extractive
  /// fallback answer, dropped query modality, partial disk results, raw
  /// query text after a rewriter outage). Details in degradation_notes.
  bool degraded = false;
  std::vector<std::string> degradation_notes;
  /// Span tree of this round (null when observability.trace_turns is off).
  /// `trace->Render()` is the `--explain` breakdown; `trace->ToJson()` the
  /// machine-readable form.
  std::shared_ptr<Trace> trace;
};

/// The system's central nexus (Figure 2): owns the five backend components
/// and the data they exchange, and is the single reference point the
/// frontend talks to. Construction runs the offline pipeline —
/// preprocessing, vector representation (with optional weight learning)
/// and index construction — emitting status events along the way; Ask()
/// runs the online pipeline (query execution + answer generation).
class Coordinator {
 public:
  /// Builds the whole system from a configuration (generating the
  /// synthetic knowledge base from the world model).
  static Result<std::unique_ptr<Coordinator>> Create(const MqaConfig& config);

  /// Restores a system from persisted components (see core/persistence.h):
  /// the world is regenerated deterministically from `config`; knowledge
  /// base, encoded store and weights come from disk; `index_blob` (when
  /// non-null, and the framework is MUST over a flat graph) restores the
  /// index without a rebuild.
  static Result<std::unique_ptr<Coordinator>> CreateFromState(
      const MqaConfig& config, KnowledgeBase kb, VectorStore store,
      std::vector<float> weights, std::istream* index_blob);

  /// Per-conversation dialogue state, externalized so a serving layer can
  /// keep one per session: the query rewriter's topical history and the
  /// prompt builder's turn history. The coordinator's own Ask() keeps
  /// using its internal (single-conversation) state.
  struct DialogueState {
    ContextualQueryRewriter rewriter;
    PromptBuilder prompt;

    void Clear() {
      rewriter.Clear();
      prompt.ClearHistory();
    }
  };

  /// Runs one QA round end to end.
  Result<AnswerTurn> Ask(const UserQuery& query);

  /// Ask() against caller-owned dialogue state. With distinct `state`
  /// objects this is safe to call from concurrent threads (the serving
  /// path): per-turn mutable state lives in `state`, and Retrieve is
  /// re-entrant, so concurrent turns search at once. `state` must be
  /// non-null and externally serialized per conversation. The mutating
  /// operations below must not run alongside it.
  Result<AnswerTurn> AskWithState(const UserQuery& query,
                                  DialogueState* state);

  /// Ingests one new multi-modal object while the system is live: the
  /// object enters the knowledge base, is encoded, and is linked into the
  /// index incrementally (routed to the least-loaded shard when sharding
  /// is on). Returns its id. Only the MUST framework — plain or sharded —
  /// over a mutable index supports this; others need SetFramework.
  Result<uint64_t> IngestObject(Object object);

  /// Deletes one object while the system is live. The object is
  /// tombstoned — gone from every subsequent retrieval immediately — and
  /// physically evicted later by compaction. With
  /// config.compaction.auto_compact, crossing the garbage-ratio threshold
  /// triggers a best-effort compaction right here (guarded by the
  /// compaction breaker; a failure degrades, never fails the delete).
  Status RemoveObject(uint64_t id);

  /// Fraction of the knowledge base that is tombstoned.
  double GarbageRatio() const;

  /// Physically evicts tombstones now: the knowledge base, encoded store
  /// and index are rewritten without the deleted objects, and ids are
  /// re-densified. MUST over a flat graph compacts in place (adjacency
  /// splicing, no distance computations); every other framework rebuilds
  /// its index over the compacted corpus. No-op when nothing is deleted.
  Status CompactNow();

  /// The compaction breaker's state, and how many compactions completed
  /// (test/bench introspection).
  BreakerState compaction_breaker_state() const;
  uint64_t compactions() const { return compactions_; }

  /// Swaps the retrieval framework ("must"/"mr"/"je") over the already
  /// encoded corpus — the configuration panel's comparative switch.
  Status SetFramework(const std::string& name);

  /// Replaces the default modality weights of the active framework.
  Status SetWeights(std::vector<float> weights);

  StatusMonitor& monitor() { return monitor_; }
  const MqaConfig& config() const { return config_; }
  const World& world() const { return *world_; }
  const KnowledgeBase& kb() const { return *kb_; }
  const EncoderSet& encoders() const { return *encoders_; }
  RetrievalFramework* framework() { return framework_.get(); }
  const std::vector<float>& weights() const { return represented_.weights; }
  const VectorStore& store() const { return *represented_.store; }
  const RetrievalFramework* framework_const() const {
    return framework_.get();
  }
  const WeightTrainReport& train_report() const {
    return represented_.train_report;
  }
  const BuildReport& build_report() const { return build_report_; }
  AnswerGenerator* answer_generator() { return answer_generator_.get(); }
  /// Null when the knowledge base is disabled (LLM-only mode).
  QueryExecutor* executor() { return executor_.get(); }

  /// Span tree of the offline build pipeline (null when
  /// observability.trace_build is off).
  const Trace* build_trace() const { return build_trace_.get(); }

  /// Resets the dialogue history (a fresh conversation).
  void ResetDialogue();

 private:
  Coordinator() = default;

  /// The body of Ask(): runs under the turn's ambient trace. A null
  /// `state` uses the coordinator's single-conversation members.
  Result<AnswerTurn> RunTurn(const UserQuery& query, DialogueState* state);

  /// Auto-compaction gate: threshold + interval throttle + breaker. Only
  /// ever best-effort — failures surface as degraded status events.
  void MaybeCompact();

  /// Builds the compaction breaker from config (Create/CreateFromState).
  void InitCompaction();

  MqaConfig config_;
  StatusMonitor monitor_;
  std::unique_ptr<World> world_;
  std::unique_ptr<KnowledgeBase> kb_;
  std::unique_ptr<EncoderSet> encoders_;
  RepresentedCorpus represented_;
  std::unique_ptr<RetrievalFramework> framework_;
  BuildReport build_report_;
  std::shared_ptr<Trace> build_trace_;
  std::unique_ptr<QueryExecutor> executor_;
  std::unique_ptr<AnswerGenerator> answer_generator_;
  ContextualQueryRewriter rewriter_;
  std::unique_ptr<CircuitBreaker> compaction_breaker_;
  int64_t last_compaction_micros_ = 0;  ///< 0 = never compacted
  uint64_t compactions_ = 0;
};

}  // namespace mqa

#endif  // MQA_CORE_COORDINATOR_H_
