#include "core/query_executor.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/experiment.h"
#include "retrieval/factory.h"
#include "vector/distance.h"

namespace mqa {
namespace {

class QueryExecutorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorldConfig wc;
    wc.num_concepts = 10;
    wc.latent_dim = 16;
    wc.raw_image_dim = 32;
    wc.seed = 3;
    auto corpus = MakeExperimentCorpus(wc, 500, "sim-clip", 16, true, 400);
    ASSERT_TRUE(corpus.ok());
    corpus_ = new ExperimentCorpus(std::move(corpus).Value());
    IndexConfig index;
    index.algorithm = "mqa-hybrid";
    index.graph.max_degree = 12;
    auto fw = CreateRetrievalFramework("must", corpus_->represented.store,
                                       corpus_->represented.weights, index);
    ASSERT_TRUE(fw.ok());
    framework_ = fw->release();
    executor_ = new QueryExecutor(corpus_->kb.get(), corpus_->encoders.get(),
                                  framework_);
  }
  static void TearDownTestSuite() {
    delete executor_;
    delete framework_;
    delete corpus_;
  }

  static ExperimentCorpus* corpus_;
  static RetrievalFramework* framework_;
  static QueryExecutor* executor_;
};

ExperimentCorpus* QueryExecutorTest::corpus_ = nullptr;
RetrievalFramework* QueryExecutorTest::framework_ = nullptr;
QueryExecutor* QueryExecutorTest::executor_ = nullptr;

TEST_F(QueryExecutorTest, TextOnlyQueryIsCrossModalFilled) {
  UserQuery query;
  query.text = "show me things";
  auto rq = executor_->EncodeUserQuery(query);
  ASSERT_TRUE(rq.ok());
  ASSERT_EQ(rq->modalities.parts.size(), 2u);
  EXPECT_FALSE(rq->modalities.parts[0].empty());  // filled from text
  EXPECT_FALSE(rq->modalities.parts[1].empty());
  EXPECT_LT(L2Sq(rq->modalities.parts[0].data(),
                 rq->modalities.parts[1].data(), 16),
            1e-8f);
}

TEST_F(QueryExecutorTest, SelectedObjectContributesItsImage) {
  UserQuery query;
  query.text = "more " + corpus_->world->ConceptName(7 % 10) + " like this";
  query.selected_object = 7;
  auto rq = executor_->EncodeUserQuery(query);
  ASSERT_TRUE(rq.ok());
  // Image part differs from text part: it came from the object.
  EXPECT_NE(rq->modalities.parts[0], rq->modalities.parts[1]);
  auto direct = corpus_->encoders->EncodeModality(
      0, corpus_->kb->at(7).modalities[0]);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(rq->modalities.parts[0], *direct);
}

TEST_F(QueryExecutorTest, UploadWinsOverSelection) {
  UserQuery query;
  query.text = "x";
  query.selected_object = 7;
  query.uploaded_image = corpus_->kb->at(9).modalities[0];
  auto rq = executor_->EncodeUserQuery(query);
  ASSERT_TRUE(rq.ok());
  auto direct = corpus_->encoders->EncodeModality(
      0, corpus_->kb->at(9).modalities[0]);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(rq->modalities.parts[0], *direct);
}

TEST_F(QueryExecutorTest, ImageOnlyQueryWorks) {
  UserQuery query;
  query.selected_object = 11;
  auto rq = executor_->EncodeUserQuery(query);
  ASSERT_TRUE(rq.ok());
  EXPECT_FALSE(rq->modalities.parts[0].empty());
  // Cross-modal fill propagates the image into the text slot.
  EXPECT_LT(L2Sq(rq->modalities.parts[0].data(),
                 rq->modalities.parts[1].data(), 16),
            1e-8f);
}

TEST_F(QueryExecutorTest, EmptyQueryFails) {
  UserQuery query;
  EXPECT_FALSE(executor_->EncodeUserQuery(query).ok());
}

TEST_F(QueryExecutorTest, UnknownSelectionFails) {
  UserQuery query;
  query.text = "x";
  query.selected_object = 123456;
  EXPECT_FALSE(executor_->EncodeUserQuery(query).ok());
}

TEST_F(QueryExecutorTest, ExecuteReturnsAlignedItems) {
  UserQuery query;
  query.text = "find " + corpus_->world->ConceptName(1);
  SearchParams params;
  params.k = 5;
  params.beam_width = 48;
  auto outcome = executor_->Execute(query, params);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->items.size(), outcome->retrieval.neighbors.size());
  for (size_t i = 0; i < outcome->items.size(); ++i) {
    EXPECT_EQ(outcome->items[i].id, outcome->retrieval.neighbors[i].id);
    EXPECT_FLOAT_EQ(outcome->items[i].distance,
                    outcome->retrieval.neighbors[i].distance);
    EXPECT_FALSE(outcome->items[i].description.empty());
  }
}

TEST_F(QueryExecutorTest, WeightOverridePassesThrough) {
  UserQuery query;
  query.text = "find " + corpus_->world->ConceptName(2);
  query.weight_override = {0.2f, 1.8f};
  auto rq = executor_->EncodeUserQuery(query);
  ASSERT_TRUE(rq.ok());
  EXPECT_EQ(rq->weights, (std::vector<float>{0.2f, 1.8f}));
}

TEST_F(QueryExecutorTest, MalformedWeightOverrideIsRejectedBeforeEncoding) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<std::vector<float>> malformed = {
      {1.0f, -1.0f}, {nan, 1.0f}, {1.0f, inf}, {1.0f}, {1.0f, 1.0f, 1.0f}};
  const BatcherStats before = executor_->stats();
  for (const std::vector<float>& weights : malformed) {
    UserQuery query;
    query.text = "find " + corpus_->world->ConceptName(2);
    query.weight_override = weights;
    auto outcome = executor_->Execute(query, SearchParams{});
    ASSERT_FALSE(outcome.ok()) << weights.size() << " weights";
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
    // Checked before any encoder runs: an unknown selection, which
    // encoding would report as kNotFound, is never looked at.
    query.selected_object = 1u << 30;
    EXPECT_EQ(executor_->Execute(query, SearchParams{}).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(executor_->stats().items, before.items);

  UserQuery valid;
  valid.text = "find " + corpus_->world->ConceptName(2);
  valid.weight_override = {0.0f, 3.0f};
  EXPECT_TRUE(executor_->Execute(valid, SearchParams{}).ok());
  EXPECT_EQ(executor_->stats().items, before.items + 1);
}

TEST(DescribeObjectTest, IncludesIdAndTexts) {
  Object obj;
  obj.id = 42;
  Payload img;
  img.type = ModalityType::kImage;
  img.text = "an image of x";
  Payload txt;
  txt.type = ModalityType::kText;
  txt.text = "caption y";
  obj.modalities = {img, txt};
  const std::string desc = DescribeObject(obj);
  EXPECT_NE(desc.find("object #42"), std::string::npos);
  EXPECT_NE(desc.find("an image of x"), std::string::npos);
  EXPECT_NE(desc.find("caption y"), std::string::npos);
}

}  // namespace
}  // namespace mqa
