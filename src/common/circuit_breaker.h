#ifndef MQA_COMMON_CIRCUIT_BREAKER_H_
#define MQA_COMMON_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/sync.h"

namespace mqa {

class Counter;

/// Breaker state machine (classic three-state):
///
///   closed ──(failure_threshold consecutive failures)──> open
///   open ──(open_duration_ms elapsed)──> half-open
///   half-open ──(half_open_successes consecutive successes)──> closed
///   half-open ──(any failure)──> open (cool-down restarts)
enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* BreakerStateToString(BreakerState state);

struct CircuitBreakerConfig {
  int failure_threshold = 5;      ///< consecutive failures that trip open
  double open_duration_ms = 1000.0;  ///< cool-down before the probe phase
  int half_open_successes = 2;    ///< probe successes required to close
  /// Probes admitted concurrently while half-open; further calls are
  /// rejected until the probes report back.
  int half_open_max_probes = 1;
};

/// A thread-safe circuit breaker guarding one flaky dependency. Callers
/// bracket the protected call:
///
///   MQA_RETURN_NOT_OK(breaker.Admit());
///   Status st = DoCall();
///   breaker.Record(st);
///
/// While open, Admit() fails fast with kUnavailable so a persistently dead
/// dependency stops consuming retry and latency budget. Time flows through
/// the injected Clock, so tests drive the cool-down with a MockClock.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerConfig config, Clock* clock = nullptr);

  /// Gate before the protected call. OK when the call may proceed;
  /// kUnavailable (mentioning "circuit breaker") when it must not.
  Status Admit();

  /// Reports the outcome of an admitted call. Only retryable errors count
  /// as dependency failures (a kInvalidArgument reply proves the service
  /// is alive and answering).
  void Record(const Status& status);
  void RecordSuccess();
  void RecordFailure();

  BreakerState state() const;

  /// Sequence of states entered since construction, starting closed —
  /// the observable closed->open->half-open->closed trace the chaos suite
  /// asserts on.
  std::vector<BreakerState> transitions() const;

  /// Optional observer invoked (outside the lock) on every transition.
  void OnTransition(std::function<void(BreakerState)> callback);

  uint64_t consecutive_failures() const;

 private:
  /// Rolls open -> half-open when the cool-down elapsed. Any resulting
  /// notifier is parked in pending_callback_ for the caller to invoke
  /// after unlocking.
  void MaybeHalfOpenLocked() MQA_REQUIRES(mu_);
  /// Switches state and records the transition. Returns a ready-to-invoke
  /// notifier (or null) to call outside the lock.
  std::function<void()> TransitionLocked(BreakerState next) MQA_REQUIRES(mu_);

  CircuitBreakerConfig config_;
  Clock* clock_;
  // Transition counters `breaker/to_{open,half_open,closed}`, resolved at
  // construction.
  Counter* const to_open_;
  Counter* const to_half_open_;
  Counter* const to_closed_;

  mutable Mutex mu_;
  BreakerState state_ MQA_GUARDED_BY(mu_) = BreakerState::kClosed;
  uint64_t consecutive_failures_ MQA_GUARDED_BY(mu_) = 0;
  int half_open_successes_ MQA_GUARDED_BY(mu_) = 0;
  int half_open_inflight_ MQA_GUARDED_BY(mu_) = 0;
  double opened_at_ms_ MQA_GUARDED_BY(mu_) = 0.0;
  std::vector<BreakerState> transitions_ MQA_GUARDED_BY(mu_){
      BreakerState::kClosed};
  std::function<void(BreakerState)> on_transition_ MQA_GUARDED_BY(mu_);
  /// see MaybeHalfOpenLocked
  std::function<void()> pending_callback_ MQA_GUARDED_BY(mu_);
};

}  // namespace mqa

#endif  // MQA_COMMON_CIRCUIT_BREAKER_H_
