#include "common/circuit_breaker.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"

namespace mqa {

const char* BreakerStateToString(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(CircuitBreakerConfig config, Clock* clock)
    : config_(config),
      clock_(clock != nullptr ? clock : SystemClock()),
      to_open_(MetricsRegistry::Global().GetCounter("breaker/to_open")),
      to_half_open_(
          MetricsRegistry::Global().GetCounter("breaker/to_half_open")),
      to_closed_(MetricsRegistry::Global().GetCounter("breaker/to_closed")) {
  config_.failure_threshold = std::max(1, config_.failure_threshold);
  config_.half_open_successes = std::max(1, config_.half_open_successes);
  config_.half_open_max_probes = std::max(1, config_.half_open_max_probes);
}

void CircuitBreaker::MaybeHalfOpenLocked() {
  if (state_ != BreakerState::kOpen) return;
  if (clock_->NowMillis() - opened_at_ms_ < config_.open_duration_ms) return;
  half_open_successes_ = 0;
  half_open_inflight_ = 0;
  // The notifier is parked; the caller invokes it after releasing mu_.
  pending_callback_ = TransitionLocked(BreakerState::kHalfOpen);
}

std::function<void()> CircuitBreaker::TransitionLocked(BreakerState next) {
  state_ = next;
  transitions_.push_back(next);
  // Counter increments are atomic, safe under mu_; the name encodes the
  // destination state so dashboards can see trips vs. recoveries.
  Counter* const counter = next == BreakerState::kOpen       ? to_open_
                           : next == BreakerState::kHalfOpen ? to_half_open_
                                                             : to_closed_;
  counter->Increment();
  if (!on_transition_) return nullptr;
  auto cb = on_transition_;
  return [cb, next]() { cb(next); };
}

Status CircuitBreaker::Admit() {
  std::function<void()> notify;
  Status out = Status::OK();
  {
    MutexLock lock(&mu_);
    MaybeHalfOpenLocked();
    notify = std::move(pending_callback_);
    switch (state_) {
      case BreakerState::kClosed:
        break;
      case BreakerState::kOpen: {
        const double remaining_ms =
            config_.open_duration_ms -
            (clock_->NowMillis() - opened_at_ms_);
        out = Status::Unavailable(
            "circuit breaker open (" +
            std::to_string(static_cast<int64_t>(std::max(0.0, remaining_ms))) +
            " ms until half-open probe)");
        break;
      }
      case BreakerState::kHalfOpen:
        if (half_open_inflight_ < config_.half_open_max_probes) {
          ++half_open_inflight_;
        } else {
          out = Status::Unavailable(
              "circuit breaker half-open, probe already in flight");
        }
        break;
    }
  }
  if (notify) notify();
  return out;
}

void CircuitBreaker::Record(const Status& status) {
  // A permanent error is an *answer*: the dependency is reachable and
  // responding, so it does not push the breaker toward open.
  if (status.ok() || !status.IsRetryable()) {
    RecordSuccess();
  } else {
    RecordFailure();
  }
}

void CircuitBreaker::RecordSuccess() {
  std::function<void()> notify;
  {
    MutexLock lock(&mu_);
    consecutive_failures_ = 0;
    if (state_ == BreakerState::kHalfOpen) {
      half_open_inflight_ = std::max(0, half_open_inflight_ - 1);
      ++half_open_successes_;
      if (half_open_successes_ >= config_.half_open_successes) {
        notify = TransitionLocked(BreakerState::kClosed);
      }
    }
  }
  if (notify) notify();
}

void CircuitBreaker::RecordFailure() {
  std::function<void()> notify;
  {
    MutexLock lock(&mu_);
    ++consecutive_failures_;
    const bool trip =
        state_ == BreakerState::kHalfOpen ||
        (state_ == BreakerState::kClosed &&
         consecutive_failures_ >=
             static_cast<uint64_t>(config_.failure_threshold));
    if (trip) {
      half_open_inflight_ = 0;
      half_open_successes_ = 0;
      opened_at_ms_ = clock_->NowMillis();
      notify = TransitionLocked(BreakerState::kOpen);
    }
  }
  if (notify) notify();
}

BreakerState CircuitBreaker::state() const {
  MutexLock lock(&mu_);
  // state() is a pure observer: an elapsed cool-down only rolls to
  // half-open when the next call is admitted.
  return state_;
}

std::vector<BreakerState> CircuitBreaker::transitions() const {
  MutexLock lock(&mu_);
  return transitions_;
}

void CircuitBreaker::OnTransition(std::function<void(BreakerState)> callback) {
  MutexLock lock(&mu_);
  on_transition_ = std::move(callback);
}

uint64_t CircuitBreaker::consecutive_failures() const {
  MutexLock lock(&mu_);
  return consecutive_failures_;
}

}  // namespace mqa
