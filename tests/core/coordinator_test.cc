#include "core/coordinator.h"

#include <gtest/gtest.h>

#include "core_test_util.h"

namespace mqa {
namespace {

using ::mqa::testing::SmallConfig;

class CoordinatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto c = Coordinator::Create(SmallConfig());
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    coordinator_ = c->release();
  }
  static void TearDownTestSuite() {
    delete coordinator_;
    coordinator_ = nullptr;
  }

  void SetUp() override { coordinator_->ResetDialogue(); }

  static Coordinator* coordinator_;
};

Coordinator* CoordinatorTest::coordinator_ = nullptr;

TEST_F(CoordinatorTest, CreateEmitsAllOfflineMilestones) {
  const auto& history = coordinator_->monitor().history();
  ASSERT_GE(history.size(), 4u);
  EXPECT_EQ(history[0].stage, ComponentStage::kDataPreprocessing);
  EXPECT_EQ(history[1].stage, ComponentStage::kVectorRepresentation);
  EXPECT_EQ(history[2].stage, ComponentStage::kIndexConstruction);
  EXPECT_NE(coordinator_->monitor().Render().find("ingested 600 objects"),
            std::string::npos);
}

TEST_F(CoordinatorTest, WeightsWereLearned) {
  const auto& weights = coordinator_->weights();
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_GT(coordinator_->train_report().triplet_accuracy, 0.7);
  // Learned weights deviate from uniform on the skewed default world.
  EXPECT_NE(weights[0], weights[1]);
}

TEST_F(CoordinatorTest, AskTextQueryReturnsAnswerAndResults) {
  UserQuery query;
  query.text = "i would like some images of " +
               coordinator_->world().ConceptName(0);
  auto turn = coordinator_->Ask(query);
  ASSERT_TRUE(turn.ok()) << turn.status().ToString();
  EXPECT_EQ(turn->items.size(), 5u);
  EXPECT_FALSE(turn->answer.empty());
  // The grounded answer quotes retrieved descriptions.
  EXPECT_NE(turn->answer.find("object #"), std::string::npos);
  // Most results match the concept.
  size_t matching = 0;
  for (const RetrievedItem& item : turn->items) {
    if (coordinator_->kb().at(item.id).concept_id == 0u) ++matching;
  }
  EXPECT_GE(matching, 3u);
}

TEST_F(CoordinatorTest, AskWithSelectedObjectUsesItsImage) {
  UserQuery q1;
  q1.text = "show me " + coordinator_->world().ConceptName(3);
  auto t1 = coordinator_->Ask(q1);
  ASSERT_TRUE(t1.ok());
  ASSERT_FALSE(t1->items.empty());

  UserQuery q2;
  q2.text = "more like this one";
  q2.selected_object = t1->items[0].id;
  auto t2 = coordinator_->Ask(q2);
  ASSERT_TRUE(t2.ok());
  ASSERT_FALSE(t2->items.empty());
  // Results align with the selected object's concept.
  const uint32_t sel_concept =
      coordinator_->kb().at(t1->items[0].id).concept_id;
  size_t matching = 0;
  for (const RetrievedItem& item : t2->items) {
    if (coordinator_->kb().at(item.id).concept_id == sel_concept) ++matching;
  }
  EXPECT_GE(matching, 3u);
}

TEST_F(CoordinatorTest, AskRejectsEmptyQuery) {
  UserQuery empty;
  EXPECT_FALSE(coordinator_->Ask(empty).ok());
}

TEST_F(CoordinatorTest, AskRejectsUnknownSelection) {
  UserQuery query;
  query.text = "anything";
  query.selected_object = 999999;
  EXPECT_FALSE(coordinator_->Ask(query).ok());
}

TEST_F(CoordinatorTest, SetFrameworkSwitchesAndStillAnswers) {
  ASSERT_TRUE(coordinator_->SetFramework("mr").ok());
  EXPECT_EQ(coordinator_->framework()->name(), "mr");
  UserQuery query;
  query.text = "find " + coordinator_->world().ConceptName(1);
  EXPECT_TRUE(coordinator_->Ask(query).ok());
  ASSERT_TRUE(coordinator_->SetFramework("je").ok());
  EXPECT_TRUE(coordinator_->Ask(query).ok());
  EXPECT_FALSE(coordinator_->SetFramework("nope").ok());
  ASSERT_TRUE(coordinator_->SetFramework("must").ok());
}

TEST_F(CoordinatorTest, SetWeightsPropagatesToFramework) {
  ASSERT_TRUE(coordinator_->SetWeights({0.5f, 1.5f}).ok());
  EXPECT_NEAR(coordinator_->framework()->weights()[1], 1.5f, 1e-4);
  EXPECT_FALSE(coordinator_->SetWeights({1.0f}).ok());
  ASSERT_TRUE(coordinator_->SetWeights({1.0f, 1.0f}).ok());
}

TEST_F(CoordinatorTest, DialogueHistoryResets) {
  UserQuery query;
  query.text = "find " + coordinator_->world().ConceptName(2);
  ASSERT_TRUE(coordinator_->Ask(query).ok());
  EXPECT_GT(coordinator_->dialogue().prompt.history_size(), 0u);
  coordinator_->ResetDialogue();
  EXPECT_EQ(coordinator_->dialogue().prompt.history_size(), 0u);
}

TEST(CoordinatorConfigTest, RejectsBadConfigs) {
  MqaConfig config = SmallConfig();
  config.corpus_size = 0;
  EXPECT_FALSE(Coordinator::Create(config).ok());
  config = SmallConfig();
  config.llm = "gpt-99";
  EXPECT_FALSE(Coordinator::Create(config).ok());
  config = SmallConfig();
  config.framework = "wrong";
  EXPECT_FALSE(Coordinator::Create(config).ok());
  config = SmallConfig();
  config.encoder_preset = "wrong";
  EXPECT_FALSE(Coordinator::Create(config).ok());
}

TEST(CoordinatorNoKbTest, AnswersFromLlmAloneWhenKbDisabled) {
  MqaConfig config = SmallConfig();
  config.enable_knowledge_base = false;
  auto c = Coordinator::Create(config);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  UserQuery query;
  query.text = "show me moldy cheese";
  auto turn = (*c)->Ask(query);
  ASSERT_TRUE(turn.ok());
  EXPECT_TRUE(turn->items.empty());
  // The ungrounded SimLlm admits it cannot verify.
  EXPECT_NE(turn->answer.find("cannot verify"), std::string::npos);
}

TEST(CoordinatorNoLlmTest, FormatsPlainResultsWithoutLlm) {
  MqaConfig config = SmallConfig();
  config.llm = "none";
  auto c = Coordinator::Create(config);
  ASSERT_TRUE(c.ok());
  UserQuery query;
  query.text = "find " + (*c)->world().ConceptName(0);
  auto turn = (*c)->Ask(query);
  ASSERT_TRUE(turn.ok());
  EXPECT_NE(turn->answer.find("Retrieved 5 results"), std::string::npos);
}

TEST(CoordinatorNoLearningTest, UniformWeightsWhenLearningDisabled) {
  MqaConfig config = SmallConfig();
  config.learn_weights = false;
  auto c = Coordinator::Create(config);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c)->weights(), (std::vector<float>{1.0f, 1.0f}));
}

}  // namespace
}  // namespace mqa
