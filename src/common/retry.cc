#include "common/retry.h"

#include <algorithm>
#include <string>

#include "common/metrics.h"

namespace mqa {

BackoffSchedule::BackoffSchedule(const RetryPolicy& policy)
    : policy_(policy), rng_(policy.seed) {}

void BackoffSchedule::Reset() {
  rng_ = Rng(policy_.seed);
  retries_issued_ = 0;
}

double BackoffSchedule::NextDelayMs() {
  double delay = policy_.initial_backoff_ms;
  for (int i = 0; i < retries_issued_; ++i) {
    delay *= policy_.backoff_multiplier;
    if (delay >= policy_.max_backoff_ms) break;
  }
  delay = std::min(delay, policy_.max_backoff_ms);
  ++retries_issued_;
  if (policy_.jitter_fraction > 0.0) {
    delay *= rng_.UniformDouble(1.0 - policy_.jitter_fraction,
                                1.0 + policy_.jitter_fraction);
  }
  return std::max(0.0, delay);
}

Retrier::Retrier(RetryPolicy policy, Clock* clock)
    : policy_(policy),
      clock_(clock != nullptr ? clock : SystemClock()),
      schedule_(policy) {
  if (policy_.max_attempts < 1) policy_.max_attempts = 1;
}

Status Retrier::Run(const std::function<Status()>& op) {
  stats_ = RetryStats{};
  schedule_.Reset();
  const double start_ms = clock_->NowMillis();
  // Backoff sleeps happen through clock_ and are otherwise invisible to
  // wall-clock timing — account for them in the registry on every exit
  // path so a retry storm shows up in the perf trajectory.
  struct RecordOnExit {
    const RetryStats* stats;
    ~RecordOnExit() {
      static Counter* const attempts =
          MetricsRegistry::Global().GetCounter("retry/attempts");
      attempts->Increment(static_cast<uint64_t>(stats->attempts));
      if (stats->attempts > 1) {
        static Counter* const retries =
            MetricsRegistry::Global().GetCounter("retry/retries");
        static Histogram* const backoff_ms =
            MetricsRegistry::Global().GetHistogram("retry/backoff_ms");
        retries->Increment(static_cast<uint64_t>(stats->attempts - 1));
        backoff_ms->Record(stats->total_backoff_ms);
      }
    }
  } record_on_exit{&stats_};

  for (int attempt = 1;; ++attempt) {
    const double attempt_start_ms = clock_->NowMillis();
    Status st = op();
    ++stats_.attempts;
    if (policy_.per_attempt_deadline_ms > 0.0) {
      const double took = clock_->NowMillis() - attempt_start_ms;
      if (took > policy_.per_attempt_deadline_ms) {
        // Too slow counts as failed even if a response eventually arrived:
        // the caller's latency budget is gone either way.
        st = Status::DeadlineExceeded(
            "attempt took " + std::to_string(took) + " ms (budget " +
            std::to_string(policy_.per_attempt_deadline_ms) + " ms); " +
            (st.ok() ? std::string("late success discarded") : st.ToString()));
      }
    }
    if (st.ok()) return st;
    stats_.last_error = st;
    if (!st.IsRetryable()) return st;
    if (attempt >= policy_.max_attempts) {
      return Status::FromCode(
          st.code(), st.message() + " (gave up after " +
                         std::to_string(stats_.attempts) + " attempts)");
    }
    const double delay_ms = schedule_.NextDelayMs();
    if (policy_.overall_deadline_ms > 0.0) {
      const double elapsed = clock_->NowMillis() - start_ms;
      if (elapsed + delay_ms > policy_.overall_deadline_ms) {
        return Status::DeadlineExceeded(
            "retry budget of " +
            std::to_string(policy_.overall_deadline_ms) +
            " ms exhausted; last error: " + st.ToString());
      }
    }
    clock_->SleepForMillis(delay_ms);
    stats_.total_backoff_ms += delay_ms;
  }
}

}  // namespace mqa
