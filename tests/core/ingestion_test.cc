// Live ingestion through the coordinator: new objects become retrievable
// without a rebuild.

#include <gtest/gtest.h>

#include "core/coordinator.h"
#include "core_test_util.h"
#include "retrieval/must.h"

namespace mqa {
namespace {

using ::mqa::testing::SmallConfig;

TEST(IngestionTest, NewObjectIsRetrievableImmediately) {
  MqaConfig config = SmallConfig();
  config.corpus_size = 300;
  auto c = Coordinator::Create(config);
  ASSERT_TRUE(c.ok());

  const uint64_t before = (*c)->kb().size();
  Rng rng(1);
  Object fresh = (*c)->world().MakeObject(2, &rng);
  auto id = (*c)->IngestObject(std::move(fresh));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, before);
  EXPECT_EQ((*c)->kb().size(), before + 1);

  // Query with the new object's own image: it should surface itself.
  UserQuery query;
  query.selected_object = *id;
  auto turn = (*c)->Ask(query);
  ASSERT_TRUE(turn.ok());
  bool found = false;
  for (const RetrievedItem& item : turn->items) {
    found = found || item.id == *id;
  }
  EXPECT_TRUE(found);
}

TEST(IngestionTest, FailedSearchLeavesNoQueryWeightsForTheNextInsert) {
  // A MUST query scores through its own weighted distance; a search that
  // fails must leave nothing of its weights behind either, because the
  // next live insert links through the framework's default distance.
  MqaConfig config = SmallConfig();
  config.corpus_size = 300;
  auto failed = Coordinator::Create(config);
  auto clean = Coordinator::Create(config);
  ASSERT_TRUE(failed.ok() && clean.ok());

  RetrievalQuery query;
  for (uint32_t dim : (*failed)->store().schema().dims) {
    query.modalities.parts.push_back(Vector(dim, 0.5f));
  }
  query.weights = {2.0f, 0.0f};
  SearchParams params;
  params.k = 0;  // the index rejects it after the weights are installed
  EXPECT_FALSE((*failed)->framework()->Retrieve(query, params).ok());

  Rng rng_failed(7), rng_clean(7);
  auto id_failed =
      (*failed)->IngestObject((*failed)->world().MakeObject(3, &rng_failed));
  auto id_clean =
      (*clean)->IngestObject((*clean)->world().MakeObject(3, &rng_clean));
  ASSERT_TRUE(id_failed.ok() && id_clean.ok());
  ASSERT_EQ(*id_failed, *id_clean);
  const auto* must_failed =
      dynamic_cast<const MustFramework*>((*failed)->framework_const());
  const auto* must_clean =
      dynamic_cast<const MustFramework*>((*clean)->framework_const());
  ASSERT_NE(must_failed, nullptr);
  ASSERT_NE(must_clean, nullptr);
  ASSERT_NE(must_failed->flat_graph_index(), nullptr);
  ASSERT_NE(must_clean->flat_graph_index(), nullptr);
  const auto id = static_cast<uint32_t>(*id_clean);
  const AdjacencyGraph& graph_failed = must_failed->flat_graph_index()->graph();
  const AdjacencyGraph& graph_clean = must_clean->flat_graph_index()->graph();
  EXPECT_EQ(std::vector<uint32_t>(graph_failed.neighbors(id).begin(),
                                  graph_failed.neighbors(id).end()),
            std::vector<uint32_t>(graph_clean.neighbors(id).begin(),
                                  graph_clean.neighbors(id).end()));
}

TEST(IngestionTest, ManyIngestionsKeepSystemHealthy) {
  MqaConfig config = SmallConfig();
  config.corpus_size = 200;
  auto c = Coordinator::Create(config);
  ASSERT_TRUE(c.ok());
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const uint32_t concept_id =
        static_cast<uint32_t>(i % (*c)->world().num_concepts());
    ASSERT_TRUE(
        (*c)->IngestObject((*c)->world().MakeObject(concept_id, &rng)).ok());
  }
  EXPECT_EQ((*c)->kb().size(), 250u);
  UserQuery query;
  query.text = "find " + (*c)->world().ConceptName(0);
  auto turn = (*c)->Ask(query);
  ASSERT_TRUE(turn.ok());
  EXPECT_EQ(turn->items.size(), 5u);
}

TEST(IngestionTest, RejectsSchemaMismatchAndNonMustFrameworks) {
  MqaConfig config = SmallConfig();
  config.corpus_size = 200;
  auto c = Coordinator::Create(config);
  ASSERT_TRUE(c.ok());
  // Schema mismatch fails inside the KB.
  Object malformed;
  malformed.modalities.resize(1);
  EXPECT_FALSE((*c)->IngestObject(std::move(malformed)).ok());

  // MR cannot ingest live.
  ASSERT_TRUE((*c)->SetFramework("mr").ok());
  Rng rng(3);
  auto st = (*c)->IngestObject((*c)->world().MakeObject(0, &rng));
  EXPECT_EQ(st.status().code(), StatusCode::kUnimplemented);
}

TEST(IngestionTest, HnswIndexAlsoSupportsLiveIngestion) {
  MqaConfig config = SmallConfig();
  config.corpus_size = 200;
  config.index.algorithm = "hnsw";
  auto c = Coordinator::Create(config);
  ASSERT_TRUE(c.ok());
  Rng rng(4);
  auto id = (*c)->IngestObject((*c)->world().MakeObject(1, &rng));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  UserQuery query;
  query.selected_object = *id;
  auto turn = (*c)->Ask(query);
  ASSERT_TRUE(turn.ok());
  bool found = false;
  for (const RetrievedItem& item : turn->items) {
    found = found || item.id == *id;
  }
  EXPECT_TRUE(found);
}

TEST(IngestionTest, DiskIndexRefusesLiveIngestion) {
  MqaConfig config = SmallConfig();
  config.corpus_size = 200;
  config.index.algorithm = "starling";
  auto c = Coordinator::Create(config);
  ASSERT_TRUE(c.ok());
  Rng rng(5);
  const uint64_t before = (*c)->kb().size();
  auto st = (*c)->IngestObject((*c)->world().MakeObject(0, &rng));
  EXPECT_EQ(st.status().code(), StatusCode::kUnimplemented);
  // The refusal left every component untouched.
  EXPECT_EQ((*c)->kb().size(), before);
}

}  // namespace
}  // namespace mqa
