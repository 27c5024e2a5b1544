#include "llm/resilient_llm.h"

#include <utility>

#include "common/metrics.h"
#include "common/trace.h"

namespace mqa {

ResilientLlm::ResilientLlm(std::unique_ptr<LanguageModel> inner,
                           LlmResilienceConfig config, Clock* clock)
    : inner_(std::move(inner)),
      retry_policy_(config.retry),
      clock_(clock),
      breaker_(config.breaker, clock) {}

Result<LlmResponse> ResilientLlm::Complete(const LlmRequest& request) {
  Span span("llm/complete");
  static Counter* const requests =
      MetricsRegistry::Global().GetCounter("llm/requests");
  requests->Increment();
  // Fail fast while the breaker is open: no retry loop, no backoff — the
  // caller immediately falls back to the extractive answer path.
  Status admitted = breaker_.Admit();
  if (!admitted.ok()) {
    static Counter* const breaker_rejections =
        MetricsRegistry::Global().GetCounter("llm/breaker_rejections");
    breaker_rejections->Increment();
    return admitted;
  }
  // One admitted call = one retry loop; the breaker sees its overall
  // outcome, so a burst of transient errors absorbed by retries counts as
  // one success, while an exhausted retry budget counts as one failure.
  // The Retrier is per-call (it is cheap and not thread-safe), so
  // concurrent serving threads never share backoff state.
  Retrier retrier(retry_policy_, clock_);
  Result<LlmResponse> response =
      retrier.Run<LlmResponse>([&] { return inner_->Complete(request); });
  {
    MutexLock lock(&mu_);
    last_stats_ = retrier.stats();
  }
  breaker_.Record(response.ok() ? Status::OK() : response.status());
  if (!response.ok()) {
    static Counter* const failures =
        MetricsRegistry::Global().GetCounter("llm/failures");
    failures->Increment();
  }
  return response;
}

}  // namespace mqa
