#include "core/answer_generator.h"

namespace mqa {

std::string AnswerGenerator::ExtractiveAnswer(
    const std::vector<RetrievedItem>& context, bool llm_down) {
  std::string answer;
  if (context.empty()) {
    answer = llm_down
                 ? "The language model is currently unavailable and no "
                   "results were retrieved; please try again."
                 : "No results (no knowledge base or LLM configured).";
    return answer;
  }
  answer = llm_down ? "The language model is currently unavailable; here "
                      "are the retrieved results:\n"
                    : "Retrieved " + std::to_string(context.size()) +
                          " results:\n";
  for (size_t i = 0; i < context.size(); ++i) {
    answer +=
        "  " + std::to_string(i + 1) + ") " + context[i].description + "\n";
  }
  return answer;
}

Result<std::string> AnswerGenerator::GenerateTurn(
    const std::string& query_text, const std::vector<RetrievedItem>& context,
    PromptBuilder* builder, GenerationOutcome* outcome) const {
  *outcome = GenerationOutcome();
  std::string answer;
  if (llm_ != nullptr) {
    outcome->prompt = builder->Build(query_text, context);
    LlmRequest request;
    request.prompt = outcome->prompt;
    request.temperature = temperature_;
    Result<LlmResponse> response = llm_->Complete(request);
    if (response.ok()) {
      answer = std::move(response).Value().text;
    } else if (response.status().IsRetryable()) {
      // Transient outage (breaker open, deadline, overload): degrade to
      // the extractive answer rather than failing the round.
      outcome->used_fallback = true;
      outcome->failure = response.status();
      answer = ExtractiveAnswer(context, /*llm_down=*/true);
    } else {
      return response.status();
    }
  } else {
    // Plain formatted listing: direct engagement with query execution.
    answer = ExtractiveAnswer(context, /*llm_down=*/false);
  }
  builder->AddTurn(query_text, answer);
  return answer;
}

}  // namespace mqa
