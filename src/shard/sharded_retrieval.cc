#include "shard/sharded_retrieval.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/fault.h"
#include "common/timer.h"
#include "common/trace.h"
#include "retrieval/must.h"

namespace mqa {

namespace {

/// Multiplicative (Fibonacci) id hash for the "hash" partition scheme.
size_t HashShard(uint32_t id, size_t num_shards) {
  return static_cast<size_t>(id * 2654435761u) % num_shards;
}

size_t BuildConcurrency(size_t num_shards) {
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::max<size_t>(1, std::min(num_shards, hw));
}

}  // namespace

const char* ShardOutcomeKindToString(ShardOutcomeKind kind) {
  switch (kind) {
    case ShardOutcomeKind::kOk:
      return "ok";
    case ShardOutcomeKind::kError:
      return "error";
    case ShardOutcomeKind::kTimeout:
      return "timeout";
    case ShardOutcomeKind::kBreakerOpen:
      return "breaker-open";
  }
  return "unknown";
}

Result<std::unique_ptr<ShardedRetrieval>> ShardedRetrieval::Create(
    const std::string& framework_name,
    std::shared_ptr<const VectorStore> corpus, std::vector<float> weights,
    const IndexConfig& index_config, const ShardOptions& options,
    BuildReport* report) {
  if (corpus == nullptr || corpus->size() == 0) {
    return Status::InvalidArgument("empty corpus");
  }
  if (options.num_shards == 0) {
    return Status::InvalidArgument("shard.num_shards must be > 0");
  }
  const bool hash_partition = options.partition == "hash";
  if (!hash_partition && options.partition != "round-robin") {
    return Status::InvalidArgument("unknown shard partition scheme: " +
                                   options.partition);
  }

  Span span("shard/build");
  Timer build_timer;

  std::unique_ptr<ShardedRetrieval> fw(new ShardedRetrieval());
  fw->options_ = options;
  fw->inner_name_ = framework_name;
  fw->corpus_ = corpus;
  fw->weights_ = NormalizeWeights(std::move(weights));

  // More shards than objects would leave some empty; clamp first.
  fw->options_.num_shards =
      std::min<size_t>(fw->options_.num_shards, corpus->size());
  const size_t requested = fw->options_.num_shards;

  // --- Partition the encoded corpus into per-shard stores. ---
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::shared_ptr<VectorStore>> stores;  // mutable during fill
  shards.reserve(requested);
  stores.reserve(requested);
  for (size_t s = 0; s < requested; ++s) {
    auto shard = std::make_unique<Shard>();
    auto store = std::make_shared<VectorStore>(corpus->schema());
    shard->store = store;
    stores.push_back(std::move(store));
    shards.push_back(std::move(shard));
  }
  for (uint32_t id = 0; id < corpus->size(); ++id) {
    const size_t s = hash_partition ? HashShard(id, requested)
                                    : static_cast<size_t>(id) % requested;
    MQA_RETURN_NOT_OK(stores[s]->Add(corpus->Row(id)).status());
    shards[s]->global_ids.push_back(id);
  }
  // A skewed hash on a tiny corpus can leave a shard empty; drop empties
  // (an empty fault domain isolates nothing and cannot build an index).
  shards.erase(std::remove_if(shards.begin(), shards.end(),
                              [](const std::unique_ptr<Shard>& s) {
                                return s->global_ids.empty();
                              }),
               shards.end());
  fw->options_.num_shards = shards.size();
  fw->options_.quorum = std::max<size_t>(
      1, std::min(fw->options_.quorum, fw->options_.num_shards));
  if (!(fw->options_.deadline_fraction > 0.0) ||
      fw->options_.deadline_fraction > 1.0) {
    fw->options_.deadline_fraction = 1.0;
  }

  // --- Build per-shard frameworks concurrently. ---
  // A dedicated build pool, not DefaultThreadPool(): the inner index
  // builds call ParallelFor on the default pool, and ParallelFor must not
  // be entered from a task already running on that same pool.
  const size_t num_shards = shards.size();
  std::vector<Result<std::unique_ptr<RetrievalFramework>>> built;
  built.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    built.emplace_back(Status::Internal("shard build did not run"));
  }
  std::vector<BuildReport> shard_reports(num_shards);
  {
    ThreadPool build_pool(BuildConcurrency(num_shards));
    std::vector<std::future<void>> futures;
    futures.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      Shard* shard = shards[s].get();
      futures.push_back(build_pool.Submit(
          [s, shard, &framework_name, &fw, &index_config, &built,
           &shard_reports] {
            built[s] = CreateRetrievalFramework(framework_name, shard->store,
                                                fw->weights_, index_config,
                                                &shard_reports[s]);
          }));
    }
    for (std::future<void>& f : futures) f.get();
  }
  for (size_t s = 0; s < num_shards; ++s) {
    if (!built[s].ok()) return built[s].status();
    shards[s]->framework = std::move(built[s]).Value();
    if (options.clock != nullptr) {
      shards[s]->framework->SetClock(options.clock);
    }
    CircuitBreakerConfig bc;
    bc.failure_threshold = fw->options_.breaker_failure_threshold;
    bc.open_duration_ms = fw->options_.breaker_open_ms;
    bc.half_open_successes = fw->options_.breaker_half_open_successes;
    shards[s]->breaker =
        std::make_unique<CircuitBreaker>(bc, fw->options_.clock);
    shards[s]->fault_point = "shard/" + std::to_string(s) + "/search";
  }
  fw->shards_ = std::move(shards);
  fw->owner_.assign(corpus->size(), {0, 0});
  for (size_t s = 0; s < fw->shards_.size(); ++s) {
    const std::vector<uint32_t>& gids = fw->shards_[s]->global_ids;
    for (uint32_t local = 0; local < gids.size(); ++local) {
      fw->owner_[gids[local]] = {static_cast<uint32_t>(s), local};
    }
  }
  if (options.clock != nullptr) {
    fw->RetrievalFramework::SetClock(options.clock);
  }

  const size_t fanout_threads =
      fw->options_.fanout_threads > 0 ? fw->options_.fanout_threads
                                      : BuildConcurrency(num_shards);
  fw->fanout_pool_ = std::make_unique<ThreadPool>(fanout_threads);

  MetricsRegistry& metrics = MetricsRegistry::Global();
  fw->fanouts_ = metrics.GetCounter("shard/fanouts");
  fw->degraded_ = metrics.GetCounter("shard/degraded_fanouts");
  fw->quorum_failures_ = metrics.GetCounter("shard/quorum_failures");
  fw->breaker_skips_ = metrics.GetCounter("shard/breaker_skips");
  fw->shard_errors_ = metrics.GetCounter("shard/shard_errors");
  fw->shard_timeouts_ = metrics.GetCounter("shard/shard_timeouts");
  fw->fanout_ms_ = metrics.GetHistogram("shard/fanout_ms");

  if (report != nullptr) {
    *report = BuildReport{};
    report->algorithm = index_config.algorithm + " (" +
                        std::to_string(num_shards) + " shards, " +
                        framework_name + ")";
    report->total_seconds = build_timer.ElapsedSeconds();
    double degree_sum = 0.0;
    for (const BuildReport& r : shard_reports) {
      degree_sum += r.avg_degree;
      report->max_degree = std::max(report->max_degree, r.max_degree);
    }
    report->avg_degree = degree_sum / static_cast<double>(num_shards);
  }
  return fw;
}

Status ShardedRetrieval::SetWeights(std::vector<float> weights) {
  if (weights.size() != corpus_->schema().num_modalities()) {
    return Status::InvalidArgument("weights do not match corpus schema");
  }
  std::vector<float> normalized = NormalizeWeights(std::move(weights));
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MQA_RETURN_NOT_OK(shard->framework->SetWeights(normalized));
  }
  weights_ = std::move(normalized);
  return Status::OK();
}

void ShardedRetrieval::SetClock(Clock* clock) {
  RetrievalFramework::SetClock(clock);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->framework->SetClock(clock);
  }
}

Status ShardedRetrieval::Remove(uint32_t id) {
  if (id >= owner_.size()) {
    return Status::NotFound("global id out of range: " + std::to_string(id));
  }
  // Mark globally first (double-delete detection lives here), then route
  // to the owning shard so its searches stop surfacing the local row.
  MQA_RETURN_NOT_OK(MarkRemoved(id, owner_.size()));
  const auto [shard_index, local_id] = owner_[id];
  return shards_[shard_index]->framework->Remove(local_id);
}

bool ShardedRetrieval::SupportsLiveIngestion() const {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    auto* must = dynamic_cast<MustFramework*>(shard->framework.get());
    if (must == nullptr || !must->SupportsLiveIngestion()) return false;
  }
  return true;
}

Status ShardedRetrieval::IngestAppended(const GraphBuildConfig& config) {
  if (corpus_->size() == 0 || corpus_->size() <= owner_.size()) {
    return Status::FailedPrecondition(
        "append the encoded vector to the shared corpus first");
  }
  const uint32_t global_id = corpus_->size() - 1;
  if (corpus_->size() != owner_.size() + 1) {
    return Status::FailedPrecondition(
        "live ingestion must append one row at a time");
  }

  // Route to the shard with the fewest live objects: deletes create slack
  // and inserts fill it, keeping the fan-out balanced over a full day of
  // churn instead of drifting with the original partition.
  size_t target = 0;
  size_t target_live = shard_live_size(0);
  for (size_t s = 1; s < shards_.size(); ++s) {
    const size_t live = shard_live_size(s);
    if (live < target_live) {
      target = s;
      target_live = live;
    }
  }
  Shard& shard = *shards_[target];
  auto* must = dynamic_cast<MustFramework*>(shard.framework.get());
  if (must == nullptr || !must->SupportsLiveIngestion()) {
    return Status::Unimplemented("shard " + std::to_string(target) +
                                 " cannot ingest live (framework '" +
                                 shard.framework->name() + "')");
  }
  const uint32_t local_id = shard.store->size();
  MQA_RETURN_NOT_OK(shard.store->Add(corpus_->Row(global_id)).status());
  MQA_RETURN_NOT_OK(must->IngestAppended(config));
  // Publish the mapping only after the index accepted the row, so a
  // failed ingest never leaves a merge-able id pointing at a ghost.
  shard.global_ids.push_back(global_id);
  owner_.emplace_back(static_cast<uint32_t>(target), local_id);
  return Status::OK();
}

void ShardedRetrieval::RunShardAttempt(size_t shard_index,
                                       const RetrievalQuery& query,
                                       const SearchParams& params,
                                       int64_t budget_micros,
                                       ShardAttempt* out) const {
  Shard& shard = *shards_[shard_index];
  Clock* clk = clock();

  // Gate: an open breaker skips the shard outright — no retry pressure on
  // a known-bad fault domain, healthy shards carry the query.
  Status admitted = shard.breaker->Admit();
  if (!admitted.ok()) {
    out->outcome.kind = ShardOutcomeKind::kBreakerOpen;
    out->outcome.status = admitted;
    breaker_skips_->Increment();
    return;
  }

  // Results are local to the shard's row space; map filter decisions from
  // global ids so attribute constraints keep working under sharding.
  SearchParams local_params = params;
  if (params.filter) {
    const std::vector<uint32_t>& gids = shard.global_ids;
    SearchFilter global_filter = params.filter;
    local_params.filter = [global_filter, &gids](uint32_t local_id) {
      return local_id < gids.size() && global_filter(gids[local_id]);
    };
  }

  // One request against this shard's data: fault point first (the shard's
  // injectable failure domain), then the real per-shard search. Elapsed
  // time flows through the framework clock, so injected latency spikes on
  // a MockClock are observed exactly.
  const int64_t start = clk->NowMicros();
  const Status injected = FaultInjector::Global().Check(shard.fault_point);
  Result<RetrievalResult> result = [&]() -> Result<RetrievalResult> {
    if (!injected.ok()) return injected;
    // A search that throws (a caller's filter, say) still resolves its
    // admission: a half-open probe left in flight would keep the shard out
    // of every later fan-out.
    try {
      return shard.framework->Retrieve(query, local_params);
    } catch (...) {
      shard.breaker->RecordFailure();
      throw;
    }
  }();
  const int64_t elapsed_micros = clk->NowMicros() - start;
  out->outcome.latency_ms = static_cast<double>(elapsed_micros) / 1e3;

  if (!result.ok()) {
    out->outcome.kind = ShardOutcomeKind::kError;
    out->outcome.status = result.status();
    shard_errors_->Increment();
    // Only retryable statuses count as shard failures inside Record.
    shard.breaker->Record(result.status());
    return;
  }
  // Deadline slice: a result arriving after this shard's budget cannot be
  // waited for by the merge — it is dropped, and the miss feeds the
  // breaker like any other failure of the fault domain.
  if (budget_micros > 0 && elapsed_micros > budget_micros) {
    out->outcome.kind = ShardOutcomeKind::kTimeout;
    out->outcome.status = Status::DeadlineExceeded(
        "shard " + std::to_string(shard_index) + " exceeded its deadline slice");
    shard_timeouts_->Increment();
    shard.breaker->RecordFailure();
    return;
  }
  shard.breaker->RecordSuccess();
  out->outcome.kind = ShardOutcomeKind::kOk;
  out->result = std::move(result).Value();
}

Result<RetrievalResult> ShardedRetrieval::Retrieve(
    const RetrievalQuery& query, const SearchParams& params,
    FanoutReport* report) const {
  Span span("shard/fanout");
  fanouts_->Increment();
  Clock* clk = clock();
  const int64_t start_micros = clk->NowMicros();

  // Per-shard deadline slice: a fraction of the remaining budget, so the
  // merge and answer stages keep headroom after the slowest shard.
  int64_t budget_micros = 0;
  if (query.deadline_micros > 0) {
    const int64_t remaining = query.deadline_micros - start_micros;
    if (remaining <= 0) {
      return Status::DeadlineExceeded(
          "query deadline expired before shard fan-out");
    }
    budget_micros = std::max<int64_t>(
        1, static_cast<int64_t>(static_cast<double>(remaining) *
                                options_.deadline_fraction));
  }

  // Tombstoned global ids are excluded twice: the composed filter keeps
  // them out of every shard search, and the merge below drops any that
  // slip through (e.g. a shard whose own tombstones lag behind).
  const SearchParams effective = WithoutTombstones(params);

  // One pool task per shard; ParallelFor returns once every attempt has
  // finished, and rethrows an exception escaping one of them.
  const size_t num_shards = shards_.size();
  std::vector<ShardAttempt> attempts(num_shards);
  fanout_pool_->ParallelFor(num_shards, [&](size_t s) {
    RunShardAttempt(s, query, effective, budget_micros, &attempts[s]);
  });

  // Merge the contributing shards' top-k into the global top-k, mapping
  // local row ids back to corpus ids, and fold their stats together.
  RetrievalResult merged;
  TopK topk(params.k);
  size_t ok_count = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    ShardAttempt& attempt = attempts[s];
    if (attempt.outcome.kind != ShardOutcomeKind::kOk) continue;
    ++ok_count;
    merged.stats.Merge(attempt.result.stats);
    const std::vector<uint32_t>& gids = shards_[s]->global_ids;
    for (const Neighbor& n : attempt.result.neighbors) {
      // Bounds guard: a shard mid-ingestion could briefly know rows the
      // global map does not; deleted ids never reach the caller.
      if (n.id >= gids.size()) continue;
      const uint32_t gid = gids[n.id];
      if (tombstones().IsDeleted(gid)) continue;
      topk.Push(n.distance, gid);
    }
  }
  if (report != nullptr) {
    report->shards.clear();
    for (ShardAttempt& attempt : attempts) {
      report->shards.push_back(std::move(attempt.outcome));
    }
    report->ok_count = ok_count;
  }
  merged.stats.shards_total = static_cast<uint32_t>(num_shards);
  merged.stats.shards_ok = static_cast<uint32_t>(ok_count);

  merged.latency_ms =
      static_cast<double>(clk->NowMicros() - start_micros) / 1e3;
  fanout_ms_->Record(merged.latency_ms);

  if (ok_count < options_.quorum) {
    quorum_failures_->Increment();
    return Status::Unavailable(
        "shard quorum not met: " + std::to_string(ok_count) + " of " +
        std::to_string(num_shards) + " shards responded (quorum " +
        std::to_string(options_.quorum) + ")");
  }
  if (ok_count < num_shards) degraded_->Increment();
  merged.neighbors = topk.TakeSorted();
  return merged;
}

}  // namespace mqa
