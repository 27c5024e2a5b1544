#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "core/coordinator.h"
#include "shard/sharded_retrieval.h"
#include "shard_test_util.h"

namespace mqa {
namespace {

using ::mqa::testing::BruteForceIndex;
using ::mqa::testing::MakeSharded;
using ::mqa::testing::PrepareShardCorpus;

/// Chaos suite of the sharded fan-out. Every test runs on a MockClock —
/// injected latency spikes, deadline slices and breaker cool-downs all
/// advance virtual time only; the suite performs zero real sleeps.
///
/// The soak job (chaos-soak.yml) cranks the iteration count and rotates
/// the fault schedule through MQA_CHAOS_ITERS / MQA_CHAOS_SEED.
class ShardChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new ExperimentCorpus(PrepareShardCorpus());
    ASSERT_NE(corpus_->kb, nullptr);
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }

  void SetUp() override {
    FaultInjector::Global().DisarmAll();
    FaultInjector::Global().Seed(ChaosSeed());
    FaultInjector::Global().SetClock(&clock_);
  }
  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    FaultInjector::Global().SetClock(nullptr);
  }

  static uint64_t ChaosSeed() {
    const char* s = std::getenv("MQA_CHAOS_SEED");
    return s != nullptr ? std::strtoull(s, nullptr, 10) : 42;
  }
  static int ChaosIters(int base) {
    const char* s = std::getenv("MQA_CHAOS_ITERS");
    const int mult = s != nullptr ? std::atoi(s) : 1;
    return base * std::max(1, mult);
  }

  /// Deterministic chaos baseline: sequential fan-out (one pool thread)
  /// driven by the suite's MockClock.
  ShardOptions ChaosOptions(size_t num_shards, size_t quorum) {
    ShardOptions options;
    options.num_shards = num_shards;
    options.quorum = quorum;
    options.fanout_threads = 1;
    options.clock = &clock_;
    return options;
  }

  RetrievalQuery Query(uint32_t concept_id, uint64_t seed = 1) {
    Rng rng(seed);
    const TextQuery q = corpus_->world->MakeTextQuery(concept_id, &rng);
    auto rq = EncodeTextQuery(*corpus_, q.text);
    EXPECT_TRUE(rq.ok());
    return std::move(rq).Value();
  }

  static SearchParams Params(uint32_t k = 10) {
    SearchParams params;
    params.k = k;
    params.beam_width = 64;
    return params;
  }

  MockClock clock_;
  static ExperimentCorpus* corpus_;
};

ExperimentCorpus* ShardChaosTest::corpus_ = nullptr;

TEST_F(ShardChaosTest, KillingKOfNShardsDegradesWithExactAccounting) {
  auto fw = MakeSharded(*corpus_, ChaosOptions(4, 2), BruteForceIndex());
  ASSERT_TRUE(fw.ok());
  ScopedFault f0("shard/0/search");
  ScopedFault f1("shard/1/search");

  FanoutReport report;
  auto result = (*fw)->Retrieve(Query(0), Params(), &report);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->stats.shards_total, 4u);
  EXPECT_EQ(result->stats.shards_ok, 2u);

  ASSERT_EQ(report.shards.size(), 4u);
  EXPECT_EQ(report.ok_count, 2u);
  EXPECT_EQ(report.shards[0].kind, ShardOutcomeKind::kError);
  EXPECT_EQ(report.shards[1].kind, ShardOutcomeKind::kError);
  EXPECT_EQ(report.shards[2].kind, ShardOutcomeKind::kOk);
  EXPECT_EQ(report.shards[3].kind, ShardOutcomeKind::kOk);
  EXPECT_EQ(FaultInjector::Global().stats("shard/0/search").fires, 1u);

  // Every merged id comes from a surviving shard.
  std::vector<uint32_t> survivors;
  for (size_t s : {size_t{2}, size_t{3}}) {
    const auto& gids = (*fw)->shard_global_ids(s);
    survivors.insert(survivors.end(), gids.begin(), gids.end());
  }
  for (const Neighbor& n : result->neighbors) {
    EXPECT_NE(std::find(survivors.begin(), survivors.end(), n.id),
              survivors.end())
        << "id " << n.id << " came from a killed shard";
  }
}

TEST_F(ShardChaosTest, MissedQuorumFailsWithUnavailable) {
  auto fw = MakeSharded(*corpus_, ChaosOptions(3, 2), BruteForceIndex());
  ASSERT_TRUE(fw.ok());
  ScopedFault f0("shard/0/search");
  ScopedFault f1("shard/1/search");
  ScopedFault f2("shard/2/search");

  FanoutReport report;
  auto result = (*fw)->Retrieve(Query(1), Params(), &report);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("quorum"), std::string::npos);
  EXPECT_EQ(report.shards.size(), 3u);
  EXPECT_EQ(report.ok_count, 0u);
}

TEST_F(ShardChaosTest, BreakerIsolatesFlappingShardAndRecovers) {
  ShardOptions options = ChaosOptions(3, 1);
  options.breaker_failure_threshold = 2;
  options.breaker_open_ms = 100.0;
  options.breaker_half_open_successes = 1;
  auto fw = MakeSharded(*corpus_, options, BruteForceIndex());
  ASSERT_TRUE(fw.ok());

  {
    ScopedFault flap("shard/1/search");
    for (int i = 0; i < 2; ++i) {
      FanoutReport report;
      ASSERT_TRUE((*fw)->Retrieve(Query(2), Params(), &report).ok());
      EXPECT_EQ(report.shards[1].kind, ShardOutcomeKind::kError);
    }
    EXPECT_EQ((*fw)->shard_breaker_state(1), BreakerState::kOpen);

    // While open the shard is skipped outright: the fault point is not
    // even consulted — no retry pressure on the known-bad domain.
    FanoutReport report;
    ASSERT_TRUE((*fw)->Retrieve(Query(2), Params(), &report).ok());
    EXPECT_EQ(report.shards[1].kind, ShardOutcomeKind::kBreakerOpen);
    EXPECT_EQ(FaultInjector::Global().stats("shard/1/search").fires, 2u);
  }

  // Shard healed + cool-down elapsed: the half-open probe succeeds and the
  // shard rejoins the merge.
  clock_.AdvanceMillis(150.0);
  FanoutReport report;
  auto result = (*fw)->Retrieve(Query(2), Params(), &report);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(report.shards[1].kind, ShardOutcomeKind::kOk);
  EXPECT_EQ((*fw)->shard_breaker_state(1), BreakerState::kClosed);
  EXPECT_EQ(result->stats.shards_ok, 3u);
}

TEST_F(ShardChaosTest, ThrowingHalfOpenProbeStillResolvesTheBreaker) {
  ShardOptions options = ChaosOptions(3, 1);
  options.breaker_failure_threshold = 2;
  options.breaker_open_ms = 100.0;
  options.breaker_half_open_successes = 1;
  auto fw = MakeSharded(*corpus_, options, BruteForceIndex());
  ASSERT_TRUE(fw.ok());
  {
    ScopedFault flap("shard/1/search");
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE((*fw)->Retrieve(Query(2), Params()).ok());
    }
  }
  ASSERT_EQ((*fw)->shard_breaker_state(1), BreakerState::kOpen);

  // Cool-down elapsed: the next fan-out admits shard 1 as the half-open
  // probe, and the caller's filter throws inside that search only.
  clock_.AdvanceMillis(150.0);
  const std::vector<uint32_t>& probed = (*fw)->shard_global_ids(1);
  SearchParams throwing = Params();
  throwing.filter = [&probed](uint32_t id) -> bool {
    if (std::find(probed.begin(), probed.end(), id) != probed.end()) {
      throw std::runtime_error("filter failed");
    }
    return true;
  };
  EXPECT_THROW((void)(*fw)->Retrieve(Query(2), throwing), std::runtime_error);

  // The thrown probe counts as a failure and re-opens the breaker; after
  // the next cool-down a clean probe closes it, and every later fan-out
  // reaches every shard.
  clock_.AdvanceMillis(150.0);
  for (int i = 0; i < 3; ++i) {
    FanoutReport report;
    auto result = (*fw)->Retrieve(Query(2), Params(), &report);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(report.shards[1].kind, ShardOutcomeKind::kOk) << "fan-out " << i;
    EXPECT_EQ(result->stats.shards_ok, 3u) << "fan-out " << i;
  }
  EXPECT_EQ((*fw)->shard_breaker_state(1), BreakerState::kClosed);
}

TEST_F(ShardChaosTest, DeadlineSliceDropsSlowShard) {
  ShardOptions options = ChaosOptions(2, 1);
  options.deadline_fraction = 0.5;
  auto fw = MakeSharded(*corpus_, options, BruteForceIndex());
  ASSERT_TRUE(fw.ok());

  FaultSpec slow;
  slow.code = StatusCode::kOk;
  slow.latency_ms = 500.0;  // way past the 50ms slice
  ScopedFault fault("shard/0/search", slow);

  RetrievalQuery rq = Query(4);
  rq.deadline_micros = clock_.NowMicros() + 100'000;
  FanoutReport report;
  auto result = (*fw)->Retrieve(rq, Params(), &report);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(report.shards[0].kind, ShardOutcomeKind::kTimeout);
  EXPECT_EQ(report.shards[1].kind, ShardOutcomeKind::kOk);
  EXPECT_EQ(result->stats.shards_ok, 1u);
  EXPECT_EQ(result->stats.shards_total, 2u);
  // The late shard's rows are absent from the merge.
  const auto& dropped = (*fw)->shard_global_ids(0);
  for (const Neighbor& n : result->neighbors) {
    EXPECT_EQ(std::find(dropped.begin(), dropped.end(), n.id), dropped.end())
        << "id " << n.id << " leaked from the timed-out shard";
  }
}

TEST_F(ShardChaosTest, FaultScheduleIsDeterministicUnderSeed) {
  const int iters = ChaosIters(20);
  auto run_schedule = [&](std::vector<std::string>* kinds) {
    FaultInjector::Global().DisarmAll();
    FaultInjector::Global().Seed(ChaosSeed());
    ShardOptions options = ChaosOptions(4, 1);
    options.breaker_failure_threshold = 3;
    options.breaker_open_ms = 5.0;
    auto fw = MakeSharded(*corpus_, options, BruteForceIndex());
    ASSERT_TRUE(fw.ok());
    FaultSpec flaky;
    flaky.probability = 0.4;
    std::vector<std::unique_ptr<ScopedFault>> faults;
    for (int s = 0; s < 4; ++s) {
      faults.push_back(std::make_unique<ScopedFault>(
          "shard/" + std::to_string(s) + "/search", flaky));
    }
    for (int i = 0; i < iters; ++i) {
      FanoutReport report;
      auto result =
          (*fw)->Retrieve(Query(i % 8, /*seed=*/i), Params(), &report);
      std::string row = result.ok() ? "ok" : "quorum-miss";
      for (const ShardOutcome& o : report.shards) {
        row += std::string(":") + ShardOutcomeKindToString(o.kind);
      }
      kinds->push_back(std::move(row));
      clock_.AdvanceMillis(1.0);
    }
  };
  std::vector<std::string> first, second;
  run_schedule(&first);
  run_schedule(&second);
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(first, second) << "same seed must give the same fault schedule";
}

/// End-to-end (satellite): every shard down -> the coordinator still
/// answers, degraded, with the retrieval outage and shard coverage on the
/// turn's degradation notes (the "[!]" status-event path).
class ShardCoordinatorChaosTest : public ShardChaosTest {
 protected:
  MqaConfig ShardedConfig() {
    MqaConfig config;
    config.world.num_concepts = 12;
    config.world.latent_dim = 16;
    config.world.raw_image_dim = 32;
    config.world.seed = 5;
    config.corpus_size = 400;
    config.embedding_dim = 16;
    config.num_training_triplets = 300;
    config.index.algorithm = "mqa-hybrid";
    config.index.graph.max_degree = 12;
    config.search.k = 5;
    config.search.beam_width = 48;
    config.shard.enable = true;
    config.shard.num_shards = 3;
    config.shard.quorum = 2;
    config.shard.fanout_threads = 1;
    config.resilience.enable = true;
    return config;
  }
};

TEST_F(ShardCoordinatorChaosTest, AllShardsDownStillAnswersDegraded) {
  auto coordinator = Coordinator::Create(ShardedConfig());
  ASSERT_TRUE(coordinator.ok());
  ScopedFault f0("shard/0/search");
  ScopedFault f1("shard/1/search");
  ScopedFault f2("shard/2/search");

  UserQuery query;
  query.text = "a red object";
  auto turn = (*coordinator)->Ask(query);
  ASSERT_TRUE(turn.ok()) << turn.status().message();
  EXPECT_TRUE(turn->degraded);
  EXPECT_TRUE(turn->items.empty());
  EXPECT_FALSE(turn->answer.empty());
  bool noted = false;
  for (const std::string& note : turn->degradation_notes) {
    if (note.find("retrieval unavailable") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted) << "missing retrieval-outage degradation note";
}

TEST_F(ShardCoordinatorChaosTest, PartialCoverageSurfacesOnTheTurn) {
  auto coordinator = Coordinator::Create(ShardedConfig());
  ASSERT_TRUE(coordinator.ok());
  ScopedFault f0("shard/0/search");

  UserQuery query;
  query.text = "a red object";
  auto turn = (*coordinator)->Ask(query);
  ASSERT_TRUE(turn.ok()) << turn.status().message();
  EXPECT_TRUE(turn->degraded);
  EXPECT_FALSE(turn->items.empty());
  bool noted = false;
  for (const std::string& note : turn->degradation_notes) {
    if (note.find("shard coverage 2/3") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted) << "missing shard-coverage degradation note";
}

}  // namespace
}  // namespace mqa
