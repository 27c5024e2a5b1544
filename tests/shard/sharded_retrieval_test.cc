#include "shard/sharded_retrieval.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "common/clock.h"
#include "retrieval/factory.h"
#include "shard_test_util.h"

namespace mqa {
namespace {

using ::mqa::testing::BruteForceIndex;
using ::mqa::testing::MakeSharded;
using ::mqa::testing::PrepareShardCorpus;
using ::mqa::testing::SmallGraphIndex;

class ShardedRetrievalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new ExperimentCorpus(PrepareShardCorpus());
    ASSERT_NE(corpus_->kb, nullptr);
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }

  static RetrievalQuery TextQueryFor(uint32_t concept_id, Rng* rng) {
    const TextQuery q = corpus_->world->MakeTextQuery(concept_id, rng);
    auto rq = EncodeTextQuery(*corpus_, q.text);
    EXPECT_TRUE(rq.ok());
    return std::move(rq).Value();
  }

  static ExperimentCorpus* corpus_;
};

ExperimentCorpus* ShardedRetrievalTest::corpus_ = nullptr;

TEST_F(ShardedRetrievalTest, PartitionCoversCorpusDisjointly) {
  for (const char* scheme : {"round-robin", "hash"}) {
    ShardOptions options;
    options.num_shards = 5;
    options.partition = scheme;
    auto fw = MakeSharded(*corpus_, options, BruteForceIndex());
    ASSERT_TRUE(fw.ok()) << scheme;
    std::set<uint32_t> seen;
    size_t total = 0;
    for (size_t s = 0; s < (*fw)->num_shards(); ++s) {
      for (uint32_t id : (*fw)->shard_global_ids(s)) {
        EXPECT_TRUE(seen.insert(id).second)
            << "id " << id << " in two shards (" << scheme << ")";
        ++total;
      }
    }
    EXPECT_EQ(total, corpus_->represented.store->size()) << scheme;
    EXPECT_EQ(*seen.rbegin(), corpus_->represented.store->size() - 1);
  }
}

TEST_F(ShardedRetrievalTest, ShardedMatchesUnshardedExactTopK) {
  ShardOptions options;
  options.num_shards = 4;
  auto sharded = MakeSharded(*corpus_, options, BruteForceIndex());
  ASSERT_TRUE(sharded.ok());
  auto single = CreateRetrievalFramework("must", corpus_->represented.store,
                                         corpus_->represented.weights,
                                         BruteForceIndex());
  ASSERT_TRUE(single.ok());

  SearchParams params;
  params.k = 10;
  params.beam_width = 64;
  Rng rng(3);
  for (uint32_t c = 0; c < 8; ++c) {
    const RetrievalQuery rq = TextQueryFor(c, &rng);
    auto got = (*sharded)->Retrieve(rq, params);
    auto want = (*single)->Retrieve(rq, params);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got->neighbors.size(), want->neighbors.size());
    for (size_t i = 0; i < want->neighbors.size(); ++i) {
      EXPECT_EQ(got->neighbors[i].id, want->neighbors[i].id) << "rank " << i;
      EXPECT_FLOAT_EQ(got->neighbors[i].distance,
                      want->neighbors[i].distance);
    }
    EXPECT_EQ(got->stats.shards_total, 4u);
    EXPECT_EQ(got->stats.shards_ok, 4u);
    EXPECT_GT(got->stats.dist_comps, 0u);
  }
}

TEST_F(ShardedRetrievalTest, GraphIndexShardingKeepsRecall) {
  ShardOptions options;
  options.num_shards = 3;
  auto sharded = MakeSharded(*corpus_, options, SmallGraphIndex());
  ASSERT_TRUE(sharded.ok());
  auto exact = CreateRetrievalFramework("must", corpus_->represented.store,
                                        corpus_->represented.weights,
                                        BruteForceIndex());
  ASSERT_TRUE(exact.ok());

  SearchParams params;
  params.k = 10;
  params.beam_width = 64;
  Rng rng(7);
  double recall_sum = 0;
  constexpr int kQueries = 8;
  for (uint32_t c = 0; c < kQueries; ++c) {
    const RetrievalQuery rq = TextQueryFor(c, &rng);
    auto got = (*sharded)->Retrieve(rq, params);
    auto want = (*exact)->Retrieve(rq, params);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    std::vector<uint32_t> truth;
    for (const Neighbor& n : want->neighbors) truth.push_back(n.id);
    recall_sum += GroundTruthHitRate(got->neighbors, truth);
  }
  EXPECT_GT(recall_sum / kQueries, 0.6);
}

TEST_F(ShardedRetrievalTest, WeightsForwardToEveryShard) {
  ShardOptions options;
  options.num_shards = 3;
  auto fw = MakeSharded(*corpus_, options, BruteForceIndex());
  ASSERT_TRUE(fw.ok());
  const size_t m = corpus_->represented.store->schema().num_modalities();
  std::vector<float> skewed(m, 0.1f);
  skewed[0] = 2.0f;
  ASSERT_TRUE((*fw)->SetWeights(skewed).ok());
  // Normalized weights sum to the modality count.
  float sum = 0;
  for (float w : (*fw)->weights()) sum += w;
  EXPECT_NEAR(sum, static_cast<float>(m), 1e-4);
  // Wrong arity is rejected without touching any shard.
  EXPECT_FALSE((*fw)->SetWeights(std::vector<float>(m + 1, 1.0f)).ok());

  Rng rng(5);
  SearchParams params;
  params.k = 5;
  params.beam_width = 32;
  auto result = (*fw)->Retrieve(TextQueryFor(0, &rng), params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->neighbors.size(), 5u);
}

TEST_F(ShardedRetrievalTest, FilterSeesGlobalIds) {
  ShardOptions options;
  options.num_shards = 4;
  auto fw = MakeSharded(*corpus_, options, BruteForceIndex());
  ASSERT_TRUE(fw.ok());
  SearchParams params;
  params.k = 10;
  params.beam_width = 64;
  // Only even *corpus* ids may be returned; under sharding the filter must
  // be consulted with global ids, not shard-local row ids.
  params.filter = [](uint32_t id) { return id % 2 == 0; };
  Rng rng(9);
  auto result = (*fw)->Retrieve(TextQueryFor(1, &rng), params);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->neighbors.empty());
  for (const Neighbor& n : result->neighbors) {
    EXPECT_EQ(n.id % 2, 0u) << "odd id passed the filter";
  }
}

TEST_F(ShardedRetrievalTest, ThrowingFilterReachesTheCaller) {
  // An exception escaping one shard's search (here the caller's filter)
  // reaches the caller, as on the unsharded path, instead of leaving the
  // fan-out waiting on a shard that never reports.
  ShardOptions options;
  options.num_shards = 4;
  auto fw = MakeSharded(*corpus_, options, BruteForceIndex());
  ASSERT_TRUE(fw.ok());
  SearchParams params;
  params.k = 10;
  params.filter = [](uint32_t id) -> bool {
    if (id % 4 == 1) throw std::runtime_error("filter failed");
    return true;
  };
  Rng rng(9);
  const RetrievalQuery query = TextQueryFor(1, &rng);
  EXPECT_THROW((void)(*fw)->Retrieve(query, params), std::runtime_error);
  // The fan-out pool survives: the next query reaches every shard.
  params.filter = nullptr;
  auto result = (*fw)->Retrieve(query, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.shards_ok, 4u);
}

TEST_F(ShardedRetrievalTest, ClampsShardCountAndQuorum) {
  ShardOptions options;
  options.num_shards = 1 << 20;  // far more shards than objects
  options.quorum = 1 << 20;
  auto fw = MakeSharded(*corpus_, options, BruteForceIndex());
  ASSERT_TRUE(fw.ok());
  EXPECT_LE((*fw)->num_shards(), corpus_->represented.store->size());
  EXPECT_LE((*fw)->quorum(), (*fw)->num_shards());
  EXPECT_GE((*fw)->quorum(), 1u);
}

TEST_F(ShardedRetrievalTest, RejectsBadOptions) {
  ShardOptions zero;
  zero.num_shards = 0;
  EXPECT_FALSE(MakeSharded(*corpus_, zero, BruteForceIndex()).ok());
  ShardOptions bad_scheme;
  bad_scheme.partition = "alphabetical";
  EXPECT_FALSE(MakeSharded(*corpus_, bad_scheme, BruteForceIndex()).ok());
  EXPECT_FALSE(ShardedRetrieval::Create("must", nullptr, {},
                                        BruteForceIndex(), ShardOptions{})
                   .ok());
}

TEST_F(ShardedRetrievalTest, NameSchemaAndBuildReport) {
  ShardOptions options;
  options.num_shards = 2;
  BuildReport report;
  auto fw = ShardedRetrieval::Create(
      "must", corpus_->represented.store, corpus_->represented.weights,
      BruteForceIndex(), options, &report);
  ASSERT_TRUE(fw.ok());
  EXPECT_EQ((*fw)->name(), "sharded:must");
  EXPECT_EQ((*fw)->schema().num_modalities(),
            corpus_->represented.store->schema().num_modalities());
  EXPECT_NE(report.algorithm.find("2 shards"), std::string::npos)
      << report.algorithm;
}

TEST_F(ShardedRetrievalTest, ExpiredDeadlineShedsBeforeFanout) {
  MockClock clock(1'000'000);
  ShardOptions options;
  options.num_shards = 2;
  options.clock = &clock;
  auto fw = MakeSharded(*corpus_, options, BruteForceIndex());
  ASSERT_TRUE(fw.ok());
  Rng rng(2);
  RetrievalQuery rq = TextQueryFor(0, &rng);
  rq.deadline_micros = 500'000;  // already in the past
  SearchParams params;
  params.k = 5;
  params.beam_width = 32;
  auto result = (*fw)->Retrieve(rq, params);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace mqa
