#ifndef MQA_CORE_ANSWER_GENERATOR_H_
#define MQA_CORE_ANSWER_GENERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "llm/language_model.h"
#include "llm/prompt_builder.h"

namespace mqa {

/// Side-channel outputs of one generation round (the prompt that was sent
/// and the fallback disposition), returned explicitly by GenerateTurn so
/// concurrent turns never share mutable generator state.
struct GenerationOutcome {
  std::string prompt;  ///< full prompt sent to the LLM (empty without LLM)
  bool used_fallback = false;
  Status failure = Status::OK();  ///< the failure behind the fallback
};

/// The Answer Generation component: assembles a retrieval-augmented prompt
/// (query + dialogue history + retrieved context) and asks the configured
/// LLM for a conversational reply. Without an LLM it falls back to a plain
/// formatted result listing, matching the paper's "in the absence of an
/// available LLM, users can still carry out a multi-modal QA procedure".
///
/// Graceful degradation: when the LLM call fails with a *transient* error
/// (kUnavailable from an open circuit breaker, kDeadlineExceeded,
/// kResourceExhausted), the generator degrades to the same extractive
/// listing instead of failing the whole round — the retrieved results are
/// the answer. Permanent errors still propagate. Each round's fallback
/// disposition is reported in its GenerationOutcome.
class AnswerGenerator {
 public:
  /// `llm` may be null (no-LLM mode).
  AnswerGenerator(std::unique_ptr<LanguageModel> llm, float temperature)
      : llm_(std::move(llm)), temperature_(temperature) {}

  /// Produces the user-facing answer for one round and records the turn
  /// in `builder`, the conversation's history; the prompt sent and the
  /// fallback disposition go to `outcome`. This object is only read, so
  /// concurrent calls with distinct builders are safe. `builder` and
  /// `outcome` must be non-null.
  Result<std::string> GenerateTurn(const std::string& query_text,
                                   const std::vector<RetrievedItem>& context,
                                   PromptBuilder* builder,
                                   GenerationOutcome* outcome) const;

  bool has_llm() const { return llm_ != nullptr; }
  const LanguageModel* llm() const { return llm_.get(); }

 private:
  /// The no-LLM answer: a formatted listing of the retrieved context.
  static std::string ExtractiveAnswer(
      const std::vector<RetrievedItem>& context, bool llm_down);

  std::unique_ptr<LanguageModel> llm_;
  float temperature_;
};

}  // namespace mqa

#endif  // MQA_CORE_ANSWER_GENERATOR_H_
