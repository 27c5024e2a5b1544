#include <gtest/gtest.h>

#include "retrieval/factory.h"
#include "retrieval/je.h"
#include "retrieval/mr.h"
#include "retrieval/must.h"
#include "retrieval_test_util.h"

namespace mqa {
namespace {

using ::mqa::testing::HitRate;
using ::mqa::testing::PrepareCorpus;
using ::mqa::testing::PreparedCorpus;

class FrameworksTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new PreparedCorpus(PrepareCorpus());
    ASSERT_NE(corpus_->kb, nullptr);
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }

  static IndexConfig SmallIndex() {
    IndexConfig config;
    config.algorithm = "mqa-hybrid";
    config.graph.max_degree = 16;
    return config;
  }

  /// Encodes a text query into a RetrievalQuery (cross-modal filled, as
  /// the query executor does).
  static RetrievalQuery TextQueryFor(uint32_t concept_id, Rng* rng) {
    const TextQuery q = corpus_->world->MakeTextQuery(concept_id, rng);
    auto rq = EncodeTextQuery(*corpus_, q.text);
    EXPECT_TRUE(rq.ok());
    return std::move(rq).Value();
  }

  static PreparedCorpus* corpus_;
};

PreparedCorpus* FrameworksTest::corpus_ = nullptr;

TEST_F(FrameworksTest, FactoryCreatesAllAndRejectsUnknown) {
  for (const std::string& name : RetrievalFrameworkNames()) {
    auto fw = CreateRetrievalFramework(name, corpus_->represented.store,
                                       corpus_->represented.weights,
                                       SmallIndex());
    ASSERT_TRUE(fw.ok()) << name;
    EXPECT_EQ((*fw)->name(), name);
  }
  EXPECT_FALSE(CreateRetrievalFramework("colbert",
                                        corpus_->represented.store,
                                        corpus_->represented.weights,
                                        SmallIndex())
                   .ok());
}

TEST_F(FrameworksTest, MustRetrievesQueryConcept) {
  auto fw = MustFramework::Create(corpus_->represented.store,
                                  corpus_->represented.weights, SmallIndex());
  ASSERT_TRUE(fw.ok());
  Rng rng(1);
  SearchParams params;
  params.k = 10;
  params.beam_width = 64;
  double precision_sum = 0;
  for (uint32_t c = 0; c < 8; ++c) {
    const RetrievalQuery rq = TextQueryFor(c, &rng);
    auto result = (*fw)->Retrieve(rq, params);
    ASSERT_TRUE(result.ok());
    precision_sum += ConceptPrecision(result->neighbors, *corpus_->kb, c);
  }
  EXPECT_GT(precision_sum / 8, 0.8);
}

TEST_F(FrameworksTest, MustRejectsMalformedQueries) {
  auto fw = MustFramework::Create(corpus_->represented.store,
                                  corpus_->represented.weights, SmallIndex());
  ASSERT_TRUE(fw.ok());
  SearchParams params;
  RetrievalQuery empty;
  empty.modalities.parts.resize(2);  // both absent
  EXPECT_FALSE((*fw)->Retrieve(empty, params).ok());
  RetrievalQuery wrong_count;
  wrong_count.modalities.parts.resize(3);
  EXPECT_FALSE((*fw)->Retrieve(wrong_count, params).ok());
  RetrievalQuery wrong_dim;
  wrong_dim.modalities.parts.resize(2);
  wrong_dim.modalities.parts[1] = Vector(5, 0.1f);
  EXPECT_FALSE((*fw)->Retrieve(wrong_dim, params).ok());
}

TEST_F(FrameworksTest, MustQueryWeightOverrideChangesResults) {
  auto fw = MustFramework::Create(corpus_->represented.store,
                                  corpus_->represented.weights, SmallIndex());
  ASSERT_TRUE(fw.ok());
  Rng rng(2);
  RetrievalQuery rq = TextQueryFor(0, &rng);
  // Add an image part from an object of a DIFFERENT concept.
  const Object& other = corpus_->kb->at(1);  // concept 1
  auto img = corpus_->encoders->EncodeModality(0, other.modalities[0]);
  ASSERT_TRUE(img.ok());
  rq.modalities.parts[0] = std::move(img).Value();

  SearchParams params;
  params.k = 10;
  params.beam_width = 64;
  // Weight fully on text -> results match concept 0; fully on image ->
  // results match the other object's concept.
  rq.weights = {0.0f, 2.0f};
  auto text_only = (*fw)->Retrieve(rq, params);
  rq.weights = {2.0f, 0.0f};
  auto image_only = (*fw)->Retrieve(rq, params);
  ASSERT_TRUE(text_only.ok() && image_only.ok());
  size_t text_c0 = 0, image_other = 0;
  for (const Neighbor& n : text_only->neighbors) {
    if (corpus_->kb->at(n.id).concept_id == 0u) ++text_c0;
  }
  for (const Neighbor& n : image_only->neighbors) {
    if (corpus_->kb->at(n.id).concept_id == other.concept_id) ++image_other;
  }
  EXPECT_GT(text_c0, 5u);
  EXPECT_GT(image_other, 5u);
  // The overrides never touch the framework's default weights.
  EXPECT_EQ((*fw)->weights().size(), 2u);
}

TEST_F(FrameworksTest, MustDistanceStatsAccumulateWithPruning) {
  auto fw = MustFramework::Create(corpus_->represented.store,
                                  corpus_->represented.weights, SmallIndex(),
                                  /*enable_pruning=*/true);
  ASSERT_TRUE(fw.ok());
  (*fw)->ResetDistanceStats();
  Rng rng(3);
  SearchParams params;
  params.k = 10;
  ASSERT_TRUE((*fw)->Retrieve(TextQueryFor(0, &rng), params).ok());
  const DistanceStats& stats = (*fw)->distance_stats();
  EXPECT_GT(stats.TotalComputations(), 0u);
  EXPECT_GT(stats.pruned_computations, 0u);  // pruning actually fired
}

TEST_F(FrameworksTest, MustPruningOnMatchesOffBitForBit) {
  // Pruning only decides where the one weighted-distance kernel may stop
  // scanning: a candidate it abandons is one the beam rejects anyway, and
  // every other distance is the exact one. So pruning on and off return
  // the same neighbors with the same distances after the same traversal.
  auto on = MustFramework::Create(corpus_->represented.store,
                                  corpus_->represented.weights, SmallIndex(),
                                  /*enable_pruning=*/true);
  auto off = MustFramework::Create(corpus_->represented.store,
                                   corpus_->represented.weights, SmallIndex(),
                                   /*enable_pruning=*/false);
  ASSERT_TRUE(on.ok() && off.ok());
  (*on)->ResetDistanceStats();
  (*off)->ResetDistanceStats();
  const std::vector<std::vector<float>> weights = {
      {}, {1.6f, 0.4f}, {0.4f, 1.6f}};  // learned, then skewed both ways
  SearchParams params;
  params.k = 10;
  params.beam_width = 64;
  Rng rng(6);
  for (uint32_t i = 0; i < 12; ++i) {
    RetrievalQuery rq =
        TextQueryFor(i % corpus_->world->num_concepts(), &rng);
    rq.weights = weights[i % weights.size()];
    auto a = (*on)->Retrieve(rq, params);
    auto b = (*off)->Retrieve(rq, params);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->neighbors.size(), b->neighbors.size()) << "query " << i;
    for (size_t j = 0; j < a->neighbors.size(); ++j) {
      EXPECT_EQ(a->neighbors[j].id, b->neighbors[j].id)
          << "query " << i << " rank " << j;
      EXPECT_EQ(a->neighbors[j].distance, b->neighbors[j].distance)
          << "query " << i << " rank " << j;
    }
    EXPECT_EQ(a->stats.hops, b->stats.hops) << "query " << i;
    EXPECT_EQ(a->stats.dist_comps, b->stats.dist_comps) << "query " << i;
  }
  const DistanceStats& with = (*on)->distance_stats();
  const DistanceStats& without = (*off)->distance_stats();
  EXPECT_GT(with.pruned_computations, 0u);
  EXPECT_EQ(without.pruned_computations, 0u);
  EXPECT_LT(with.dims_scanned, without.dims_scanned);
}

TEST_F(FrameworksTest, MrRetrievesAndMerges) {
  auto fw = MrFramework::Create(corpus_->represented.store,
                                corpus_->represented.weights, SmallIndex());
  ASSERT_TRUE(fw.ok());
  Rng rng(4);
  SearchParams params;
  params.k = 10;
  params.beam_width = 64;
  double precision_sum = 0;
  for (uint32_t c = 0; c < 6; ++c) {
    auto result = (*fw)->Retrieve(TextQueryFor(c, &rng), params);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->neighbors.size(), 10u);
    // Results sorted by fused distance.
    for (size_t i = 1; i < result->neighbors.size(); ++i) {
      EXPECT_LE(result->neighbors[i - 1].distance,
                result->neighbors[i].distance);
    }
    precision_sum += ConceptPrecision(result->neighbors, *corpus_->kb, c);
  }
  EXPECT_GT(precision_sum / 6, 0.7);
}

TEST_F(FrameworksTest, MrSetWeightsValidates) {
  auto fw = MrFramework::Create(corpus_->represented.store,
                                corpus_->represented.weights, SmallIndex());
  ASSERT_TRUE(fw.ok());
  EXPECT_FALSE((*fw)->SetWeights({1.0f}).ok());
  EXPECT_TRUE((*fw)->SetWeights({1.0f, 1.0f}).ok());
}

TEST_F(FrameworksTest, JeRetrievesAndHasNoWeights) {
  auto fw = JeFramework::Create(corpus_->represented.store, SmallIndex());
  ASSERT_TRUE(fw.ok());
  Rng rng(5);
  SearchParams params;
  params.k = 10;
  params.beam_width = 64;
  auto result = (*fw)->Retrieve(TextQueryFor(3, &rng), params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->neighbors.size(), 10u);
  EXPECT_EQ((*fw)->SetWeights({1.0f, 1.0f}).code(),
            StatusCode::kUnimplemented);
}

TEST_F(FrameworksTest, CreateRejectsEmptyCorpus) {
  auto empty = std::make_shared<VectorStore>(
      corpus_->represented.store->schema());
  EXPECT_FALSE(
      MustFramework::Create(empty, {1.0f, 1.0f}, SmallIndex()).ok());
  EXPECT_FALSE(MrFramework::Create(empty, {1.0f, 1.0f}, SmallIndex()).ok());
  EXPECT_FALSE(JeFramework::Create(empty, SmallIndex()).ok());
}

}  // namespace
}  // namespace mqa
