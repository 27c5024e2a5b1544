#include "core/answer_generator.h"

#include <gtest/gtest.h>

#include "llm/sim_llm.h"

namespace mqa {
namespace {

std::vector<RetrievedItem> SomeItems() {
  return {{1, "object #1 | moldy cheese", 0.2f},
          {2, "object #2 | foggy clouds", 0.4f}};
}

TEST(AnswerGeneratorTest, GroundedAnswerWithLlm) {
  AnswerGenerator gen(std::make_unique<SimLlm>(1), 0.0f);
  EXPECT_TRUE(gen.has_llm());
  PromptBuilder history;
  GenerationOutcome outcome;
  auto answer =
      gen.GenerateTurn("show me cheese", SomeItems(), &history, &outcome);
  ASSERT_TRUE(answer.ok());
  EXPECT_NE(answer->find("moldy cheese"), std::string::npos);
  EXPECT_EQ(history.history_size(), 1u);
  // The assembled prompt is observable.
  EXPECT_NE(outcome.prompt.find("[CONTEXT]"), std::string::npos);
  EXPECT_NE(outcome.prompt.find("[QUERY] show me cheese"), std::string::npos);
}

TEST(AnswerGeneratorTest, HistoryFlowsIntoNextPrompt) {
  AnswerGenerator gen(std::make_unique<SimLlm>(1), 0.0f);
  PromptBuilder history;
  GenerationOutcome outcome;
  ASSERT_TRUE(
      gen.GenerateTurn("first question", SomeItems(), &history, &outcome)
          .ok());
  ASSERT_TRUE(
      gen.GenerateTurn("second question", SomeItems(), &history, &outcome)
          .ok());
  EXPECT_NE(outcome.prompt.find("[HISTORY]"), std::string::npos);
  EXPECT_NE(outcome.prompt.find("user: first question"), std::string::npos);
  history.ClearHistory();
  EXPECT_EQ(history.history_size(), 0u);
}

TEST(AnswerGeneratorTest, NoLlmFallsBackToFormattedListing) {
  AnswerGenerator gen(nullptr, 0.0f);
  EXPECT_FALSE(gen.has_llm());
  PromptBuilder history;
  GenerationOutcome outcome;
  auto answer = gen.GenerateTurn("anything", SomeItems(), &history, &outcome);
  ASSERT_TRUE(answer.ok());
  EXPECT_NE(answer->find("Retrieved 2 results"), std::string::npos);
  EXPECT_NE(answer->find("1) object #1"), std::string::npos);
}

TEST(AnswerGeneratorTest, NoLlmNoResults) {
  AnswerGenerator gen(nullptr, 0.0f);
  PromptBuilder history;
  GenerationOutcome outcome;
  auto answer = gen.GenerateTurn("anything", {}, &history, &outcome);
  ASSERT_TRUE(answer.ok());
  EXPECT_NE(answer->find("No results"), std::string::npos);
}

}  // namespace
}  // namespace mqa
