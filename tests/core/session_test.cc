#include "core/session.h"

#include <gtest/gtest.h>

#include "core_test_util.h"

namespace mqa {
namespace {

using ::mqa::testing::SmallConfig;

class SessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto c = Coordinator::Create(SmallConfig());
    ASSERT_TRUE(c.ok());
    coordinator_ = c->release();
  }
  static void TearDownTestSuite() {
    delete coordinator_;
    coordinator_ = nullptr;
  }

  static Coordinator* coordinator_;
};

Coordinator* SessionTest::coordinator_ = nullptr;

TEST_F(SessionTest, TwoRoundRefinementFlow) {
  Session session(coordinator_);
  const std::string concept_name = coordinator_->world().ConceptName(0);
  auto t1 = session.Ask("i would like some images of " + concept_name);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(session.rounds(), 1u);
  ASSERT_FALSE(session.last_results().empty());
  EXPECT_FALSE(session.selection().has_value());

  ASSERT_TRUE(session.Select(0).ok());
  EXPECT_EQ(session.selection(), session.last_results()[0].id);

  auto t2 = session.Ask("more like this one please");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(session.rounds(), 2u);
  EXPECT_FALSE(t2->items.empty());
  session.Reset();
}

TEST_F(SessionTest, SelectValidatesRank) {
  Session session(coordinator_);
  EXPECT_FALSE(session.Select(0).ok());  // nothing retrieved yet
  auto t1 = session.Ask("find " + coordinator_->world().ConceptName(1));
  ASSERT_TRUE(t1.ok());
  EXPECT_TRUE(session.Select(t1->items.size() - 1).ok());
  EXPECT_FALSE(session.Select(t1->items.size()).ok());
  session.Reset();
}

TEST_F(SessionTest, AskWithImageUsesUpload) {
  Session session(coordinator_);
  // "Upload" an image taken from a knowledge-base object of concept 2.
  uint64_t source = 0;
  for (const Object& obj : coordinator_->kb().objects()) {
    if (obj.concept_id == 2u) {
      source = obj.id;
      break;
    }
  }
  const Payload image = coordinator_->kb().at(source).modalities[0];
  auto turn = session.AskWithImage("find more items like this", image);
  ASSERT_TRUE(turn.ok());
  ASSERT_FALSE(turn->items.empty());
  size_t matching = 0;
  for (const RetrievedItem& item : turn->items) {
    if (coordinator_->kb().at(item.id).concept_id == 2u) ++matching;
  }
  EXPECT_GE(matching, 3u);
  session.Reset();
}

TEST_F(SessionTest, ResetClearsEverything) {
  Session session(coordinator_);
  ASSERT_TRUE(
      session.Ask("find " + coordinator_->world().ConceptName(3)).ok());
  ASSERT_TRUE(session.Select(0).ok());
  session.Reset();
  EXPECT_EQ(session.rounds(), 0u);
  EXPECT_TRUE(session.last_results().empty());
  EXPECT_FALSE(session.selection().has_value());
}

TEST_F(SessionTest, SelectionPersistsAcrossRounds) {
  Session session(coordinator_);
  ASSERT_TRUE(
      session.Ask("find " + coordinator_->world().ConceptName(4)).ok());
  ASSERT_TRUE(session.Select(0).ok());
  const uint64_t selected = *session.selection();
  ASSERT_TRUE(session.Ask("make it different").ok());
  EXPECT_EQ(session.selection(), selected);  // still active
  session.Reset();
}

TEST_F(SessionTest, SessionsKeepTheirOwnDialogue) {
  // Two sessions over one coordinator: B's vague follow-up is not
  // resolved against A's topic, and resetting A leaves B's history alone.
  Session a(coordinator_);
  Session b(coordinator_);
  const std::string topic = coordinator_->world().ConceptName(5);
  ASSERT_TRUE(a.Ask("i would like some images of " + topic).ok());
  coordinator_->monitor().Clear();
  ASSERT_TRUE(b.Ask("show me more please").ok());
  EXPECT_EQ(coordinator_->monitor().Render().find("rewrote vague query"),
            std::string::npos);

  ASSERT_TRUE(b.Ask("find " + coordinator_->world().ConceptName(6)).ok());
  a.Reset();
  coordinator_->monitor().Clear();
  ASSERT_TRUE(b.Ask("show me more please").ok());
  EXPECT_NE(coordinator_->monitor().Render().find("rewrote vague query"),
            std::string::npos);
  b.Reset();
}

}  // namespace
}  // namespace mqa
