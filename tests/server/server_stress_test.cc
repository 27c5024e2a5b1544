#include "server/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/trace.h"
#include "../core/core_test_util.h"

namespace mqa {
namespace {

using ::mqa::testing::SmallConfig;

size_t CountSpans(const Trace& trace, const std::string& name) {
  const std::vector<SpanRecord> spans = trace.spans();
  return static_cast<size_t>(
      std::count_if(spans.begin(), spans.end(),
                    [&name](const SpanRecord& s) { return s.name == name; }));
}

/// The deterministic multi-session stress proof: N client threads drive M
/// turns each through one Server on a MockClock (no real sleeps anywhere),
/// and every single turn must complete — nothing is shed, nothing hangs,
/// no dialogue state crosses sessions. Runs under tsan and the TSA preset
/// in CI.
class ServerStressTest : public ::testing::Test {
 protected:
  static constexpr size_t kSessions = 6;
  static constexpr size_t kTurns = 4;

  static void SetUpTestSuite() {
    clock_ = new MockClock();
    MqaConfig config = SmallConfig();
    config.serving.num_workers = 4;
    config.serving.queue_capacity = 64;
    config.serving.clock = clock_;
    auto server = Server::Create(config);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = server->release();
  }

  static void TearDownTestSuite() {
    delete server_;
    server_ = nullptr;
    delete clock_;
    clock_ = nullptr;
  }

  static MockClock* clock_;
  static Server* server_;
};

MockClock* ServerStressTest::clock_ = nullptr;
Server* ServerStressTest::server_ = nullptr;

TEST_F(ServerStressTest, EveryTurnOfEverySessionCompletes) {
  const ServerStatsSnapshot before = server_->stats();
  std::vector<uint64_t> sessions(kSessions);
  for (size_t s = 0; s < kSessions; ++s) sessions[s] = server_->OpenSession();

  std::atomic<size_t> completed{0};
  std::atomic<size_t> failed{0};
  std::vector<std::thread> clients;
  clients.reserve(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    clients.emplace_back([&sessions, &completed, &failed, s] {
      // Each session sticks to its own concept so answers are checkable.
      const uint32_t concept_id = static_cast<uint32_t>(
          s % server_->coordinator()->config().world.num_concepts);
      for (size_t t = 0; t < kTurns; ++t) {
        UserQuery query;
        query.text = "show me " +
                     server_->coordinator()->world().ConceptName(concept_id);
        Result<AnswerTurn> turn = server_->Ask(sessions[s], query);
        if (!turn.ok()) {
          ++failed;
          ADD_FAILURE() << "session " << sessions[s] << " turn " << t << ": "
                        << turn.status().ToString();
          continue;
        }
        ++completed;
        EXPECT_FALSE(turn.Value().answer.empty());
        EXPECT_FALSE(turn.Value().items.empty());
        // Every search and encode runs on the thread of the turn that
        // issued it, so its spans land in that turn's own trace.
        ASSERT_NE(turn.Value().trace, nullptr);
        EXPECT_EQ(CountSpans(*turn.Value().trace, "graph/search"), 1u);
        EXPECT_EQ(CountSpans(*turn.Value().trace, "encoder/sim-text"), 1u);
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(completed.load(), kSessions * kTurns);
  EXPECT_EQ(failed.load(), 0u);

  // Server-side accounting agrees: everything admitted, nothing shed.
  const ServerStatsSnapshot after = server_->stats();
  EXPECT_EQ(after.accepted - before.accepted, kSessions * kTurns);
  EXPECT_EQ(after.completed - before.completed, kSessions * kTurns);
  EXPECT_EQ(after.failed, before.failed);
  EXPECT_EQ(after.shed_queue_full, before.shed_queue_full);
  EXPECT_EQ(after.shed_breaker, before.shed_breaker);
  EXPECT_EQ(after.shed_deadline, before.shed_deadline);

  // Per-session dialogue state advanced by exactly this session's turns.
  for (size_t s = 0; s < kSessions; ++s) {
    Result<size_t> history = server_->DialogueHistorySize(sessions[s]);
    ASSERT_TRUE(history.ok());
    EXPECT_EQ(history.Value(), kTurns);
    Result<std::vector<RetrievedItem>> results =
        server_->LastResults(sessions[s]);
    ASSERT_TRUE(results.ok());
    EXPECT_FALSE(results.Value().empty());
    EXPECT_TRUE(server_->CloseSession(sessions[s]).ok());
  }
}

TEST_F(ServerStressTest, CrossQueryBatchingCoalescedWork) {
  // Push 24 concurrent turns through the 4 workers; the executor must
  // count every one of their searches, each as its own batch (the stats
  // keep the batcher's names). Stats are asserted as deltas so the test is
  // self-contained under ctest's one-process-per-test execution.
  ASSERT_NE(server_->search_batcher(), nullptr);
  const BatcherStats before = server_->search_batcher()->stats();

  std::vector<uint64_t> sessions(kSessions);
  for (size_t s = 0; s < kSessions; ++s) sessions[s] = server_->OpenSession();
  std::vector<std::thread> clients;
  clients.reserve(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    clients.emplace_back([&sessions, s] {
      for (size_t t = 0; t < kTurns; ++t) {
        UserQuery query;
        query.text = "show me " +
                     server_->coordinator()->world().ConceptName(
                         static_cast<uint32_t>(s) %
                         server_->coordinator()->world().num_concepts());
        Result<AnswerTurn> turn = server_->Ask(sessions[s], query);
        EXPECT_TRUE(turn.ok()) << turn.status().ToString();
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (size_t s = 0; s < kSessions; ++s) {
    EXPECT_TRUE(server_->CloseSession(sessions[s]).ok());
  }

  const BatcherStats after = server_->search_batcher()->stats();
  EXPECT_EQ(after.batches - before.batches, kSessions * kTurns);
  EXPECT_EQ(after.items - before.items, kSessions * kTurns);
}

TEST_F(ServerStressTest, SubmitToUnknownSessionIsNotFound) {
  UserQuery query;
  query.text = "anything";
  Result<AnswerTurn> turn = server_->Ask(999999, query);
  ASSERT_FALSE(turn.ok());
  EXPECT_EQ(turn.status().code(), StatusCode::kNotFound);
}

TEST_F(ServerStressTest, ShutdownIsIdempotentAndDrains) {
  // A dedicated small server: accepted work still completes through
  // Shutdown, and a second Shutdown is a no-op.
  MqaConfig config = SmallConfig();
  config.serving.num_workers = 2;
  config.serving.queue_capacity = 8;
  auto server = Server::Create(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint64_t session = (*server)->OpenSession();

  std::atomic<int> done{0};
  (*server)->Suspend();
  for (int i = 0; i < 3; ++i) {
    UserQuery query;
    query.text = "show me " + (*server)->coordinator()->world().ConceptName(1);
    ASSERT_TRUE((*server)
                    ->Submit(session, query,
                             [&done](Result<AnswerTurn> turn) {
                               EXPECT_TRUE(turn.ok());
                               ++done;
                             })
                    .ok());
  }
  EXPECT_EQ((*server)->queue_depth(), 3u);
  // Shutdown releases the suspended workers and drains the queue before
  // joining: each queued turn's callback fires exactly once.
  (*server)->Shutdown();
  EXPECT_EQ(done.load(), 3);
  (*server)->Shutdown();  // idempotent
  EXPECT_EQ(done.load(), 3);
}

}  // namespace
}  // namespace mqa
