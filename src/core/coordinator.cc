#include "core/coordinator.h"

#include "common/clock.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "common/tombstones.h"
#include <istream>
#include <optional>

#include "llm/resilient_llm.h"
#include "llm/sim_llm.h"
#include "retrieval/must.h"
#include "shard/sharded_retrieval.h"

namespace mqa {

namespace {

LlmResilienceConfig MakeLlmResilience(const ResilienceOptions& r) {
  LlmResilienceConfig out;
  out.retry.max_attempts = r.llm_max_attempts;
  out.retry.initial_backoff_ms = r.llm_initial_backoff_ms;
  out.retry.backoff_multiplier = r.llm_backoff_multiplier;
  out.retry.max_backoff_ms = r.llm_max_backoff_ms;
  out.retry.per_attempt_deadline_ms = r.llm_per_attempt_deadline_ms;
  out.retry.overall_deadline_ms = r.llm_overall_deadline_ms;
  out.breaker.failure_threshold = r.breaker_failure_threshold;
  out.breaker.open_duration_ms = r.breaker_open_ms;
  out.breaker.half_open_successes = r.breaker_half_open_successes;
  return out;
}

RetryPolicy MakeEncoderRetry(const ResilienceOptions& r) {
  RetryPolicy p;
  p.max_attempts = r.encoder_max_attempts;
  p.initial_backoff_ms = r.encoder_initial_backoff_ms;
  return p;
}

/// Wraps the LLM in the resilience decorator when enabled. A null model
/// stays null (no-LLM mode needs no breaker).
std::unique_ptr<LanguageModel> MaybeWrapLlm(std::unique_ptr<LanguageModel> llm,
                                            const ResilienceOptions& r) {
  if (!r.enable || llm == nullptr) return llm;
  return std::make_unique<ResilientLlm>(std::move(llm), MakeLlmResilience(r),
                                        r.clock);
}

/// Builds the configured retrieval framework: the single-index path, or —
/// with config.shard.enable — the fault-isolated sharded fan-out layer
/// over per-shard instances of the same framework. The shard layer
/// inherits the resilience clock unless it carries its own, so MockClock
/// tests drive breaker cool-downs and deadline slices from one source.
Result<std::unique_ptr<RetrievalFramework>> BuildFramework(
    const MqaConfig& config, std::shared_ptr<const VectorStore> store,
    std::vector<float> weights, BuildReport* report) {
  if (config.shard.enable) {
    ShardOptions options = config.shard;
    if (options.clock == nullptr) options.clock = config.resilience.clock;
    MQA_ASSIGN_OR_RETURN(
        std::unique_ptr<ShardedRetrieval> sharded,
        ShardedRetrieval::Create(config.framework, std::move(store),
                                 std::move(weights), config.index, options,
                                 report));
    return std::unique_ptr<RetrievalFramework>(std::move(sharded));
  }
  MQA_ASSIGN_OR_RETURN(
      std::unique_ptr<RetrievalFramework> fw,
      CreateRetrievalFramework(config.framework, std::move(store),
                               std::move(weights), config.index, report));
  if (config.resilience.clock != nullptr) {
    fw->SetClock(config.resilience.clock);
  }
  return fw;
}

}  // namespace

Result<std::unique_ptr<Coordinator>> Coordinator::Create(
    const MqaConfig& config) {
  std::unique_ptr<Coordinator> c(new Coordinator());
  c->config_ = config;
  c->InitCompaction();

  // Pin the distance-kernel dispatch before any index work. "auto" leaves
  // resolution to the environment (MQA_SIMD_LEVEL) and CPUID; an explicit
  // request above the CPU's ceiling clamps down with a note.
  if (config.simd_level != "auto" && !config.simd_level.empty()) {
    std::string note;
    const SimdLevel level =
        ResolveSimdLevel(config.simd_level, DetectedSimdLevel(), &note);
    if (!note.empty()) MQA_LOG(Warning) << "simd: " << note;
    MQA_RETURN_NOT_OK(SetSimdLevel(level));
  }
  MQA_LOG(Info) << "simd: distance kernels at level "
                << SimdLevelName(ActiveSimdLevel());

  // Trace the offline pipeline: stage spans below nest under build/root,
  // and DAG stages dispatched to pool threads re-attach via the ambient
  // trace (see DagPipeline::Run).
  if (config.observability.trace_build) {
    c->build_trace_ =
        std::make_shared<Trace>("offline-build", config.observability.clock);
  }
  std::optional<ScopedTrace> scoped_trace;
  if (c->build_trace_ != nullptr) scoped_trace.emplace(c->build_trace_.get());
  Span build_span("coordinator/build");

  // --- Data preprocessing: build the world and ingest the corpus. ---
  Timer timer;
  MQA_ASSIGN_OR_RETURN(World world, World::Create(config.world));
  c->world_ = std::make_unique<World>(std::move(world));
  if (config.enable_knowledge_base) {
    if (config.corpus_size == 0) {
      return Status::InvalidArgument("corpus_size must be > 0");
    }
    Span span("build/preprocess");
    MQA_ASSIGN_OR_RETURN(
        KnowledgeBase kb,
        c->world_->GenerateCorpus(config.corpus_size, config.kb_name));
    c->kb_ = std::make_unique<KnowledgeBase>(std::move(kb));
    c->monitor_.Emit(
        ComponentStage::kDataPreprocessing,
        "ingested " + std::to_string(c->kb_->size()) + " objects, " +
            std::to_string(c->kb_->schema().num_modalities()) + " modalities",
        timer.ElapsedMillis());
  } else {
    c->monitor_.Emit(ComponentStage::kDataPreprocessing,
                     "knowledge base disabled: LLM-only answering");
  }

  // --- Answer generation (LLM plumbing is independent of the KB). ---
  std::unique_ptr<LanguageModel> llm;
  if (config.llm == "sim-llm") {
    llm = std::make_unique<SimLlm>(config.seed);
  } else if (config.llm != "none") {
    return Status::InvalidArgument("unknown llm: " + config.llm);
  }
  const std::string llm_label = llm ? llm->name() : "none";
  llm = MaybeWrapLlm(std::move(llm), config.resilience);
  c->answer_generator_ =
      std::make_unique<AnswerGenerator>(std::move(llm), config.temperature);

  if (!config.enable_knowledge_base) {
    c->monitor_.Emit(ComponentStage::kAnswerGeneration,
                     "llm: " + llm_label + ", temperature " +
                         FormatDouble(config.temperature, 2));
    return c;
  }

  // --- Vector representation: encoders + optional weight learning. ---
  timer.Reset();
  {
    Span span("build/represent");
    MQA_ASSIGN_OR_RETURN(
        EncoderSet encoders,
        MakeSimEncoderSet(c->world_.get(), config.encoder_preset,
                          config.embedding_dim));
    c->encoders_ = std::make_unique<EncoderSet>(std::move(encoders));
    MQA_ASSIGN_OR_RETURN(
        c->represented_,
        RepresentCorpus(*c->kb_, *c->encoders_, config.learn_weights,
                        config.learner, config.num_training_triplets,
                        c->world_.get()));
  }
  {
    std::string msg = "encoder " + config.encoder_preset + ", dim " +
                      std::to_string(config.embedding_dim) + ", weights [";
    for (size_t m = 0; m < c->represented_.weights.size(); ++m) {
      if (m > 0) msg += ", ";
      msg += FormatDouble(c->represented_.weights[m], 3);
    }
    msg += config.learn_weights ? "] (learned)" : "] (uniform)";
    c->monitor_.Emit(ComponentStage::kVectorRepresentation, msg,
                     timer.ElapsedMillis());
  }

  // --- Index construction through the retrieval framework. ---
  timer.Reset();
  {
    Span span("build/index");
    MQA_ASSIGN_OR_RETURN(
        c->framework_,
        BuildFramework(config, c->represented_.store, c->represented_.weights,
                       &c->build_report_));
  }
  c->monitor_.Emit(ComponentStage::kIndexConstruction,
                   "framework " + c->framework_->name() + ", index " +
                       config.index.algorithm,
                   timer.ElapsedMillis());

  c->executor_ = std::make_unique<QueryExecutor>(
      c->kb_.get(), c->encoders_.get(), c->framework_.get());
  if (config.resilience.enable) {
    c->executor_->EnableResilience(MakeEncoderRetry(config.resilience),
                                   config.resilience.clock);
  }
  c->monitor_.Emit(ComponentStage::kAnswerGeneration,
                   "llm: " + llm_label + ", temperature " +
                       FormatDouble(config.temperature, 2));
  return c;
}

Result<AnswerTurn> Coordinator::Ask(const UserQuery& query) {
  return AskWithState(query, &dialogue_);
}

Result<AnswerTurn> Coordinator::AskWithState(const UserQuery& query,
                                             DialogueState* state) {
  static Counter* const turns =
      MetricsRegistry::Global().GetCounter("coordinator/turns");
  turns->Increment();
  std::shared_ptr<Trace> trace;
  if (config_.observability.trace_turns) {
    trace = std::make_shared<Trace>("turn", config_.observability.clock);
  }
  // The root span must close before Render/ToJson, so the turn body runs
  // inside this block.
  Result<AnswerTurn> result = [&]() -> Result<AnswerTurn> {
    std::optional<ScopedTrace> scoped_trace;
    if (trace != nullptr) scoped_trace.emplace(trace.get());
    Span root("coordinator/turn");
    return RunTurn(query, state);
  }();
  if (!result.ok()) return result;
  AnswerTurn turn = std::move(result).Value();
  turn.trace = std::move(trace);
  if (turn.degraded) {
    static Counter* const degraded_turns =
        MetricsRegistry::Global().GetCounter("coordinator/degraded_turns");
    degraded_turns->Increment();
  }
  if (turn.trace != nullptr && config_.observability.explain_turns) {
    monitor_.Emit(ComponentStage::kCoordinator,
                  "per-turn breakdown:\n" + turn.trace->Render());
  }
  return turn;
}

Result<AnswerTurn> Coordinator::RunTurn(const UserQuery& query,
                                        DialogueState* state) {
  AnswerTurn turn;
  if (config_.enable_knowledge_base) {
    Timer timer;
    // Resolve vague follow-ups from dialogue history for retrieval only;
    // the answer generator still sees the user's own words.
    UserQuery effective = query;
    if (config_.rewrite_vague_queries && !query.text.empty()) {
      Span rewrite_span("coordinator/rewrite");
      Result<std::string> rewritten =
          state->rewriter.RewriteChecked(query.text);
      if (rewritten.ok()) {
        effective.text = std::move(rewritten).Value();
        if (effective.text != query.text) {
          monitor_.Emit(ComponentStage::kQueryExecution,
                        "rewrote vague query to \"" + effective.text + "\"");
        }
      } else if (rewritten.status().IsRetryable()) {
        // Rewriter outage: search with the user's raw words instead of
        // failing the round — a vaguer query beats no query.
        turn.degradation_notes.push_back(
            "query rewriter unavailable: " + rewritten.status().message() +
            "; searching with the raw query text");
        monitor_.EmitDegraded(ComponentStage::kQueryExecution,
                              turn.degradation_notes.back());
      } else {
        return rewritten.status();
      }
    }
    if (!query.text.empty()) state->rewriter.ObserveTurn(query.text);
    MQA_ASSIGN_OR_RETURN(QueryOutcome outcome,
                         executor_->Execute(effective, config_.search));
    for (const std::string& note : outcome.degradation) {
      monitor_.EmitDegraded(ComponentStage::kQueryExecution, note);
      turn.degradation_notes.push_back(note);
    }
    turn.items = std::move(outcome.items);
    turn.retrieval = std::move(outcome.retrieval);
    monitor_.Emit(ComponentStage::kQueryExecution,
                  "retrieved " + std::to_string(turn.items.size()) +
                      " results for \"" + query.text + "\"",
                  timer.ElapsedMillis());
  }
  Timer timer;
  GenerationOutcome generation;
  {
    Span span("coordinator/answer");
    // GenerateTurn is const: the conversation's prompt history lives in
    // `state`, so turns of distinct conversations can run at once.
    MQA_ASSIGN_OR_RETURN(
        turn.answer, answer_generator_->GenerateTurn(
                         query.text, turn.items, &state->prompt, &generation));
  }
  if (generation.used_fallback) {
    turn.degradation_notes.push_back(
        "LLM unavailable (" + generation.failure.message() +
        "); served the extractive answer");
    monitor_.EmitDegraded(ComponentStage::kAnswerGeneration,
                          turn.degradation_notes.back(),
                          timer.ElapsedMillis());
  } else {
    monitor_.Emit(ComponentStage::kAnswerGeneration, "answer ready",
                  timer.ElapsedMillis());
  }
  turn.degraded = !turn.degradation_notes.empty();
  return turn;
}

Result<std::unique_ptr<Coordinator>> Coordinator::CreateFromState(
    const MqaConfig& config, KnowledgeBase kb, VectorStore store,
    std::vector<float> weights, std::istream* index_blob) {
  if (!config.enable_knowledge_base) {
    return Status::InvalidArgument(
        "a persisted system always has a knowledge base");
  }
  std::unique_ptr<Coordinator> c(new Coordinator());
  c->config_ = config;
  c->InitCompaction();

  if (config.observability.trace_build) {
    c->build_trace_ =
        std::make_shared<Trace>("restore", config.observability.clock);
  }
  std::optional<ScopedTrace> scoped_trace;
  if (c->build_trace_ != nullptr) scoped_trace.emplace(c->build_trace_.get());
  Span build_span("coordinator/restore");

  Timer timer;
  MQA_ASSIGN_OR_RETURN(World world, World::Create(config.world));
  c->world_ = std::make_unique<World>(std::move(world));
  c->kb_ = std::make_unique<KnowledgeBase>(std::move(kb));
  c->monitor_.Emit(ComponentStage::kDataPreprocessing,
                   "restored " + std::to_string(c->kb_->size()) +
                       " objects from disk",
                   timer.ElapsedMillis());

  MQA_ASSIGN_OR_RETURN(
      EncoderSet encoders,
      MakeSimEncoderSet(c->world_.get(), config.encoder_preset,
                        config.embedding_dim));
  c->encoders_ = std::make_unique<EncoderSet>(std::move(encoders));
  c->represented_.store = std::make_shared<VectorStore>(std::move(store));
  c->represented_.weights = std::move(weights);
  c->represented_.labels.reserve(c->kb_->size());
  for (const Object& obj : c->kb_->objects()) {
    c->represented_.labels.push_back(obj.concept_id);
  }
  c->monitor_.Emit(ComponentStage::kVectorRepresentation,
                   "restored encoded store (" +
                       std::to_string(c->represented_.store->size()) +
                       " rows) and weights");

  timer.Reset();
  // The saved single-index blob cannot seed a sharded deployment (shards
  // hold disjoint sub-indexes), so sharding always rebuilds.
  if (index_blob != nullptr && config.framework == "must" &&
      !config.shard.enable) {
    MQA_ASSIGN_OR_RETURN(
        std::unique_ptr<MustFramework> must,
        MustFramework::CreateFromSavedIndex(c->represented_.store,
                                            c->represented_.weights,
                                            index_blob));
    c->framework_ = std::move(must);
    c->monitor_.Emit(ComponentStage::kIndexConstruction,
                     "restored index from disk (no rebuild)",
                     timer.ElapsedMillis());
  } else {
    MQA_ASSIGN_OR_RETURN(
        c->framework_,
        BuildFramework(config, c->represented_.store, c->represented_.weights,
                       &c->build_report_));
    c->monitor_.Emit(ComponentStage::kIndexConstruction,
                     "rebuilt index " + config.index.algorithm,
                     timer.ElapsedMillis());
  }

  // Re-apply persisted tombstones: deleted objects' rows are still in the
  // store (ids stay dense until compaction), the framework just must not
  // surface them.
  for (uint64_t id = 0; id < c->kb_->size(); ++id) {
    if (c->kb_->IsDeleted(id)) {
      MQA_RETURN_NOT_OK(c->framework_->Remove(static_cast<uint32_t>(id)));
    }
  }

  std::unique_ptr<LanguageModel> llm;
  if (config.llm == "sim-llm") {
    llm = std::make_unique<SimLlm>(config.seed);
  } else if (config.llm != "none") {
    return Status::InvalidArgument("unknown llm: " + config.llm);
  }
  const std::string llm_label = llm ? llm->name() : "none";
  llm = MaybeWrapLlm(std::move(llm), config.resilience);
  c->answer_generator_ =
      std::make_unique<AnswerGenerator>(std::move(llm), config.temperature);
  c->executor_ = std::make_unique<QueryExecutor>(
      c->kb_.get(), c->encoders_.get(), c->framework_.get());
  if (config.resilience.enable) {
    c->executor_->EnableResilience(MakeEncoderRetry(config.resilience),
                                   config.resilience.clock);
  }
  c->monitor_.Emit(ComponentStage::kAnswerGeneration,
                   "llm: " + llm_label + ", temperature " +
                       FormatDouble(config.temperature, 2));
  return c;
}

Result<uint64_t> Coordinator::IngestObject(Object object) {
  if (!config_.enable_knowledge_base) {
    return Status::FailedPrecondition("knowledge base is disabled");
  }
  auto* must = dynamic_cast<MustFramework*>(framework_.get());
  auto* sharded = dynamic_cast<ShardedRetrieval*>(framework_.get());
  if (must == nullptr && sharded == nullptr) {
    return Status::Unimplemented(
        "live ingestion requires the must framework; switch frameworks to "
        "rebuild instead");
  }
  // Check mutability before touching any state, so a refusal leaves the
  // knowledge base, store and index consistent.
  if (must != nullptr && !must->SupportsLiveIngestion()) {
    return Status::Unimplemented(
        "the disk-resident index is immutable; rebuild to ingest");
  }
  if (sharded != nullptr && !sharded->SupportsLiveIngestion()) {
    return Status::Unimplemented(
        "sharded live ingestion requires must shards over mutable indexes");
  }
  Timer timer;
  MQA_ASSIGN_OR_RETURN(uint64_t id, kb_->Ingest(std::move(object)));
  MQA_ASSIGN_OR_RETURN(MultiVector mv, encoders_->EncodeObject(kb_->at(id)));
  MQA_RETURN_NOT_OK(represented_.store->AddMultiVector(mv).status());
  represented_.labels.push_back(kb_->at(id).concept_id);
  if (sharded != nullptr) {
    MQA_RETURN_NOT_OK(sharded->IngestAppended(config_.index.graph));
  } else {
    MQA_RETURN_NOT_OK(must->IngestAppended(config_.index.graph));
  }
  monitor_.Emit(ComponentStage::kDataPreprocessing,
                "ingested object #" + std::to_string(id) + " live",
                timer.ElapsedMillis());
  return id;
}

Status Coordinator::RemoveObject(uint64_t id) {
  if (!config_.enable_knowledge_base) {
    return Status::FailedPrecondition("knowledge base is disabled");
  }
  if (framework_ == nullptr) {
    return Status::FailedPrecondition("no retrieval framework configured");
  }
  if (id >= kb_->size()) {
    return Status::NotFound("object id out of range: " + std::to_string(id));
  }
  Timer timer;
  // The framework first (it validates bounds and double deletes against
  // the same dense id space), then the knowledge base; both tombstone
  // sets stay in lockstep because their preconditions are identical.
  MQA_RETURN_NOT_OK(framework_->Remove(static_cast<uint32_t>(id)));
  MQA_RETURN_NOT_OK(kb_->Remove(id));
  monitor_.Emit(ComponentStage::kDataPreprocessing,
                "removed object #" + std::to_string(id) + " (" +
                    std::to_string(kb_->num_deleted()) + " tombstones, " +
                    FormatDouble(100.0 * GarbageRatio(), 1) + "% garbage)",
                timer.ElapsedMillis());
  MaybeCompact();
  return Status::OK();
}

double Coordinator::GarbageRatio() const {
  return kb_ != nullptr ? kb_->GarbageRatio() : 0.0;
}

Status Coordinator::CompactNow() {
  if (!config_.enable_knowledge_base) {
    return Status::FailedPrecondition("knowledge base is disabled");
  }
  if (kb_->num_deleted() == 0) return Status::OK();
  Span span("compaction/run");
  Timer timer;
  const uint64_t evicted = kb_->num_deleted();

  // Plan: one remap (old id -> dense new id) drives the knowledge base,
  // store and index rewrites identically, keeping the three id-aligned.
  MQA_RETURN_NOT_OK(FaultInjector::Global().Check("compaction/step"));
  std::vector<uint32_t> remap;
  const uint32_t live = kb_->BuildRemap(&remap);
  if (live == 0) {
    return Status::FailedPrecondition(
        "compaction would empty the corpus; refusing");
  }

  // Stage everything fallible off to the side; nothing commits until all
  // of it succeeded, so a failure (injected or real) leaves the system
  // serving exactly as before — with tombstones, but consistent.
  MQA_RETURN_NOT_OK(FaultInjector::Global().Check("compaction/step"));
  VectorStore staged(represented_.store->schema());
  staged.Reserve(live);
  for (uint32_t id = 0; id < represented_.store->size(); ++id) {
    if (remap[id] == kTombstonedId) continue;
    MQA_RETURN_NOT_OK(staged.Add(represented_.store->Row(id)).status());
  }
  KnowledgeBase compacted_kb = kb_->CompactLive(remap, live);

  auto* must = dynamic_cast<MustFramework*>(framework_.get());
  const bool in_place = must != nullptr && must->flat_graph_index() != nullptr;
  MQA_RETURN_NOT_OK(FaultInjector::Global().Check("compaction/step"));
  if (in_place) {
    // Commit. The framework's distance computers read the store through a
    // borrowed pointer, so rewriting *represented_.store in place keeps
    // them valid; CompactTombstones then swaps in the spliced graph. Both
    // steps were validated up front and do not fail in practice; an error
    // here is surfaced so the durability layer can fail closed.
    *represented_.store = std::move(staged);
    MQA_RETURN_NOT_OK(
        must->CompactTombstones(remap, live, config_.index.graph));
  } else {
    // Non-flat index kinds and non-MUST frameworks (including the sharded
    // layer) rebuild over the compacted corpus; the new framework is
    // complete before anything is committed.
    auto new_store = std::make_shared<VectorStore>(std::move(staged));
    BuildReport report;
    MQA_ASSIGN_OR_RETURN(
        std::unique_ptr<RetrievalFramework> rebuilt,
        BuildFramework(config_, new_store, represented_.weights, &report));
    represented_.store = std::move(new_store);
    framework_ = std::move(rebuilt);
    build_report_ = report;
    executor_ = std::make_unique<QueryExecutor>(kb_.get(), encoders_.get(),
                                                framework_.get());
    if (config_.resilience.enable) {
      executor_->EnableResilience(MakeEncoderRetry(config_.resilience),
                                  config_.resilience.clock);
    }
  }
  *kb_ = std::move(compacted_kb);
  represented_.labels.clear();
  represented_.labels.reserve(kb_->size());
  for (const Object& obj : kb_->objects()) {
    represented_.labels.push_back(obj.concept_id);
  }
  ++compactions_;
  monitor_.Emit(ComponentStage::kIndexConstruction,
                "compacted " + std::to_string(evicted) + " tombstones (" +
                    std::to_string(live) + " live objects, " +
                    (in_place ? "in-place splice" : "full rebuild") + ")",
                timer.ElapsedMillis());
  return Status::OK();
}

void Coordinator::InitCompaction() {
  CircuitBreakerConfig bc;
  bc.failure_threshold = config_.compaction.breaker_failure_threshold;
  bc.open_duration_ms = config_.compaction.breaker_open_ms;
  compaction_breaker_ =
      std::make_unique<CircuitBreaker>(bc, config_.resilience.clock);
}

BreakerState Coordinator::compaction_breaker_state() const {
  return compaction_breaker_ != nullptr ? compaction_breaker_->state()
                                        : BreakerState::kClosed;
}

void Coordinator::MaybeCompact() {
  const CompactionOptions& opt = config_.compaction;
  if (!opt.auto_compact || kb_ == nullptr) return;
  if (GarbageRatio() < opt.garbage_ratio) return;
  Clock* clk = config_.resilience.clock != nullptr ? config_.resilience.clock
                                                   : SystemClock();
  const int64_t now = clk->NowMicros();
  if (opt.min_interval_ms > 0.0 && last_compaction_micros_ > 0 &&
      static_cast<double>(now - last_compaction_micros_) / 1e3 <
          opt.min_interval_ms) {
    return;
  }
  // The breaker turns a persistently failing compactor into a quiet
  // degradation (tombstone-only service) instead of an attempt storm.
  if (compaction_breaker_ != nullptr && !compaction_breaker_->Admit().ok()) {
    return;
  }
  const Status st = CompactNow();
  if (compaction_breaker_ != nullptr) compaction_breaker_->Record(st);
  if (st.ok()) {
    last_compaction_micros_ = now;
  } else {
    monitor_.EmitDegraded(ComponentStage::kIndexConstruction,
                          "auto-compaction failed (" + st.message() +
                              "); serving with tombstones");
  }
}

Status Coordinator::SetFramework(const std::string& name) {
  if (!config_.enable_knowledge_base) {
    return Status::FailedPrecondition("knowledge base is disabled");
  }
  Timer timer;
  BuildReport report;
  MqaConfig switched = config_;
  switched.framework = name;
  auto fw = BuildFramework(switched, represented_.store, represented_.weights,
                           &report);
  if (!fw.ok()) return fw.status();
  framework_ = std::move(fw).Value();
  build_report_ = report;
  config_.framework = name;
  executor_ = std::make_unique<QueryExecutor>(kb_.get(), encoders_.get(),
                                              framework_.get());
  if (config_.resilience.enable) {
    executor_->EnableResilience(MakeEncoderRetry(config_.resilience),
                                config_.resilience.clock);
  }
  monitor_.Emit(ComponentStage::kIndexConstruction,
                "switched framework to " + name, timer.ElapsedMillis());
  return Status::OK();
}

Status Coordinator::SetWeights(std::vector<float> weights) {
  if (framework_ == nullptr) {
    return Status::FailedPrecondition("no retrieval framework configured");
  }
  MQA_RETURN_NOT_OK(framework_->SetWeights(weights));
  represented_.weights = std::move(weights);
  return Status::OK();
}

}  // namespace mqa
