#include "server/server.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "vector/simd/simd.h"

namespace mqa {

namespace {

CircuitBreakerConfig MakeBreakerConfig(const ServingOptions& options) {
  CircuitBreakerConfig config;
  config.failure_threshold = options.breaker_failure_threshold;
  config.open_duration_ms = options.breaker_open_ms;
  config.half_open_successes = options.breaker_half_open_successes;
  return config;
}

}  // namespace

Result<std::unique_ptr<Server>> Server::Create(const MqaConfig& config) {
  MQA_ASSIGN_OR_RETURN(std::unique_ptr<Coordinator> coordinator,
                       Coordinator::Create(config));
  return std::make_unique<Server>(std::move(coordinator), config.serving);
}

Server::Server(std::unique_ptr<Coordinator> coordinator,
               ServingOptions options)
    : coordinator_(std::move(coordinator)),
      options_(options),
      breaker_(MakeBreakerConfig(options), options.clock),
      queue_(std::max<size_t>(1, options.queue_capacity)),
      submitted_metric_(
          MetricsRegistry::Global().GetCounter("server/submitted")),
      accepted_metric_(MetricsRegistry::Global().GetCounter("server/accepted")),
      completed_metric_(
          MetricsRegistry::Global().GetCounter("server/completed")),
      failed_metric_(MetricsRegistry::Global().GetCounter("server/failed")),
      shed_queue_full_metric_(
          MetricsRegistry::Global().GetCounter("server/shed_queue_full")),
      shed_breaker_metric_(
          MetricsRegistry::Global().GetCounter("server/shed_breaker")),
      shed_deadline_metric_(
          MetricsRegistry::Global().GetCounter("server/shed_deadline")),
      queue_depth_metric_(
          MetricsRegistry::Global().GetGauge("server/queue_depth")),
      open_sessions_metric_(
          MetricsRegistry::Global().GetGauge("server/open_sessions")),
      queue_wait_ms_metric_(
          MetricsRegistry::Global().GetHistogram("server/queue_wait_ms")),
      turn_latency_ms_metric_(
          MetricsRegistry::Global().GetHistogram("server/turn_latency_ms")) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  // Surface the resolved kernel tier where operators look first: the
  // startup log and a gauge (0 = scalar, 1 = avx2, 2 = avx512).
  const SimdLevel simd = ActiveSimdLevel();
  MQA_LOG(Info) << "server: distance kernels at simd level "
                << SimdLevelName(simd);
  Gauge* const simd_level =
      MetricsRegistry::Global().GetGauge("server/simd_level");
  simd_level->Set(static_cast<double>(static_cast<int>(simd)));
  QueryExecutor* executor = coordinator_->executor();
  if (executor != nullptr && options_.clock != nullptr) {
    executor->SetClock(options_.clock);
  }
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Server::~Server() { Shutdown(); }

const SearchStage* Server::search_batcher() const {
  const QueryExecutor* executor = coordinator_->executor();
  return executor != nullptr ? &executor->search_stage() : nullptr;
}

uint64_t Server::OpenSession() {
  auto session = std::make_shared<ServerSession>();
  MutexLock lock(&mu_);
  session->id = next_session_id_++;
  sessions_[session->id] = session;
  open_sessions_metric_->Set(static_cast<double>(sessions_.size()));
  return session->id;
}

Status Server::CloseSession(uint64_t session_id) {
  MutexLock lock(&mu_);
  if (sessions_.erase(session_id) == 0) {
    return Status::NotFound("unknown session " + std::to_string(session_id));
  }
  open_sessions_metric_->Set(static_cast<double>(sessions_.size()));
  return Status::OK();
}

std::shared_ptr<Server::ServerSession> Server::FindSession(
    uint64_t session_id) const {
  MutexLock lock(&mu_);
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second;
}

Status Server::ResetSession(uint64_t session_id) {
  std::shared_ptr<ServerSession> session = FindSession(session_id);
  if (session == nullptr) {
    return Status::NotFound("unknown session " + std::to_string(session_id));
  }
  MutexLock lock(&session->mu);
  session->dialogue.Clear();
  session->last_results.clear();
  session->selected.reset();
  return Status::OK();
}

Status Server::Select(uint64_t session_id, size_t rank) {
  std::shared_ptr<ServerSession> session = FindSession(session_id);
  if (session == nullptr) {
    return Status::NotFound("unknown session " + std::to_string(session_id));
  }
  MutexLock lock(&session->mu);
  if (rank >= session->last_results.size()) {
    return Status::OutOfRange(
        "rank " + std::to_string(rank) + " out of range (last turn had " +
        std::to_string(session->last_results.size()) + " results)");
  }
  session->selected = session->last_results[rank].id;
  return Status::OK();
}

Result<std::vector<RetrievedItem>> Server::LastResults(
    uint64_t session_id) const {
  std::shared_ptr<ServerSession> session = FindSession(session_id);
  if (session == nullptr) {
    return Status::NotFound("unknown session " + std::to_string(session_id));
  }
  MutexLock lock(&session->mu);
  return session->last_results;
}

Result<size_t> Server::DialogueHistorySize(uint64_t session_id) const {
  std::shared_ptr<ServerSession> session = FindSession(session_id);
  if (session == nullptr) {
    return Status::NotFound("unknown session " + std::to_string(session_id));
  }
  MutexLock lock(&session->mu);
  return session->dialogue.prompt.history_size();
}

Status Server::Submit(uint64_t session_id, UserQuery query, AskCallback done) {
  std::shared_ptr<ServerSession> session = FindSession(session_id);
  if (session == nullptr) {
    return Status::NotFound("unknown session " + std::to_string(session_id));
  }
  submitted_metric_->Increment();

  // Overload policy step 1: the breaker sheds at the door while open.
  Status admitted = breaker_.Admit();
  if (!admitted.ok()) {
    shed_breaker_.fetch_add(1, std::memory_order_relaxed);
    shed_breaker_metric_->Increment();
    return admitted;
  }

  PendingTurn turn;
  turn.session = std::move(session);
  turn.query = std::move(query);
  turn.done = std::move(done);
  turn.enqueue_micros = clock()->NowMicros();
  if (turn.query.deadline_micros > 0) {
    turn.deadline_micros = turn.query.deadline_micros;
  } else if (options_.default_deadline_ms > 0) {
    turn.deadline_micros =
        turn.enqueue_micros +
        static_cast<int64_t>(options_.default_deadline_ms * 1e3);
  }

  // Step 2: bounded queue — full means backpressure, not buffering. The
  // rejection also feeds the breaker: a full queue is the overload signal
  // that eventually trips it.
  if (!queue_.TryPush(std::move(turn))) {
    shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
    shed_queue_full_metric_->Increment();
    breaker_.RecordFailure();
    return Status::ResourceExhausted("server request queue is full (capacity " +
                                     std::to_string(queue_.capacity()) + ")");
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  accepted_metric_->Increment();
  queue_depth_metric_->Set(static_cast<double>(queue_.size()));
  return Status::OK();
}

Result<AnswerTurn> Server::Ask(uint64_t session_id, const UserQuery& query) {
  struct Waiter {
    Mutex mu;
    CondVar cv;
    bool done MQA_GUARDED_BY(mu) = false;
    Result<AnswerTurn> result MQA_GUARDED_BY(mu) =
        Status::Internal("turn still pending");
  };
  auto waiter = std::make_shared<Waiter>();
  MQA_RETURN_NOT_OK(Submit(session_id, query, [waiter](Result<AnswerTurn> r) {
    waiter->mu.Lock();
    waiter->result = std::move(r);
    waiter->done = true;
    waiter->mu.Unlock();
    waiter->cv.NotifyAll();
  }));
  waiter->mu.Lock();
  while (!waiter->done) waiter->cv.Wait(&waiter->mu);
  Result<AnswerTurn> out = std::move(waiter->result);
  waiter->mu.Unlock();
  return out;
}

void Server::WorkerLoop() {
  while (std::optional<PendingTurn> turn = queue_.Pop()) {
    RunTurn(std::move(*turn));
  }
}

void Server::RunTurn(PendingTurn turn) {
  const int64_t start_micros = clock()->NowMicros();
  queue_wait_ms_metric_->Record(
      static_cast<double>(start_micros - turn.enqueue_micros) / 1e3);
  queue_depth_metric_->Set(static_cast<double>(queue_.size()));

  // Overload policy step 3: a turn whose deadline passed while it sat in
  // the queue is shed before any work is spent on it. This, too, feeds
  // the breaker — deadline expiry in the queue means the queue is longer
  // than the latency budget.
  if (turn.deadline_micros > 0 && start_micros >= turn.deadline_micros) {
    shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    shed_deadline_metric_->Increment();
    breaker_.RecordFailure();
    turn.done(Status::DeadlineExceeded("turn deadline expired while queued"));
    return;
  }

  Result<AnswerTurn> result = Status::Internal("turn never ran");
  {
    ServerSession& session = *turn.session;
    // Holding the session mutex for the whole turn serializes turns
    // within one session (dialogue history must observe its own turns in
    // order) while turns of different sessions run concurrently.
    MutexLock session_lock(&session.mu);
    UserQuery query = std::move(turn.query);
    query.deadline_micros = turn.deadline_micros;
    if (!query.selected_object.has_value() && session.selected.has_value()) {
      query.selected_object = session.selected;  // the feedback loop
    }
    session.selected.reset();
    result = coordinator_->AskWithState(query, &session.dialogue);
    if (result.ok()) {
      session.last_results = result.Value().items;
      ++session.turns;
    }
  }

  turn_latency_ms_metric_->Record(
      static_cast<double>(clock()->NowMicros() - turn.enqueue_micros) / 1e3);
  if (result.ok()) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    completed_metric_->Increment();
    breaker_.RecordSuccess();
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
    failed_metric_->Increment();
    // The breaker is strictly an *overload* signal: mid-flight deadline
    // expiry counts against it, any other application error proves the
    // serving plane itself is keeping up.
    if (result.status().code() == StatusCode::kDeadlineExceeded) {
      breaker_.RecordFailure();
    } else {
      breaker_.RecordSuccess();
    }
  }
  turn.done(std::move(result));
}

void Server::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  queue_.SetPaused(false);
  queue_.Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void Server::Suspend() { queue_.SetPaused(true); }

void Server::Resume() { queue_.SetPaused(false); }

ServerStatsSnapshot Server::stats() const {
  ServerStatsSnapshot out;
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.completed = completed_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  out.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  out.shed_breaker = shed_breaker_.load(std::memory_order_relaxed);
  out.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace mqa
