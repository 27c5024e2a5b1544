// Full-system persistence: save a built system, reopen it without
// re-encoding or rebuilding, and keep answering identically.

#include "core/persistence.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>
#include <unistd.h>

#include "core/config_parser.h"
#include "core_test_util.h"
#include "retrieval/must.h"

namespace mqa {
namespace {

using ::mqa::testing::SmallConfig;

/// Distance work done between two MustFramework::distance_stats()
/// snapshots: {full, pruned, dims scanned}.
std::vector<uint64_t> Work(const DistanceStats& after,
                           const DistanceStats& before) {
  return {after.full_computations - before.full_computations,
          after.pruned_computations - before.pruned_computations,
          after.dims_scanned - before.dims_scanned};
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mqa_persist_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(PersistenceTest, SaveLoadRoundTripsAnswers) {
  MqaConfig config = SmallConfig();
  config.corpus_size = 400;
  auto original = Coordinator::Create(config);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(SaveSystemState(**original, dir_.string()).ok());
  for (const char* file : {"config.txt", "kb.bin", "store.bin",
                           "weights.txt", "index.bin"}) {
    EXPECT_TRUE(std::filesystem::exists(dir_ / file)) << file;
  }

  auto restored = LoadSystemState(dir_.string());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->kb().size(), 400u);
  EXPECT_EQ((*restored)->weights(), (*original)->weights());
  // The index was restored, not rebuilt.
  EXPECT_NE((*restored)->monitor().Render().find("restored index from disk"),
            std::string::npos);

  // A reopened system is the same system: identical queries produce
  // identical ids and distances from identical distance work. The queries
  // cover text only, text plus a clicked image, and the same multimodal
  // query under a skewed per-query weight override.
  UserQuery text;
  text.text = "find " + (*original)->world().ConceptName(2);
  UserQuery clicked;
  clicked.text = "find " + (*original)->world().ConceptName(5);
  clicked.selected_object = 7;
  UserQuery skewed = clicked;
  skewed.weight_override.assign((*original)->weights().size(), 0.25f);
  skewed.weight_override.front() = 4.0f;

  const auto* a_must =
      dynamic_cast<const MustFramework*>((*original)->framework_const());
  const auto* b_must =
      dynamic_cast<const MustFramework*>((*restored)->framework_const());
  ASSERT_TRUE(a_must != nullptr && b_must != nullptr);
  for (const UserQuery& query : {text, clicked, skewed}) {
    SCOPED_TRACE(query.text + (query.weight_override.empty() ? "" : " skewed"));
    const DistanceStats a_before = a_must->distance_stats();
    const DistanceStats b_before = b_must->distance_stats();
    auto a = (*original)->Ask(query);
    auto b = (*restored)->Ask(query);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->items.size(), b->items.size());
    for (size_t i = 0; i < a->items.size(); ++i) {
      EXPECT_EQ(a->items[i].id, b->items[i].id) << "rank " << i;
      EXPECT_EQ(a->items[i].distance, b->items[i].distance) << "rank " << i;
    }
    const auto a_work = Work(a_must->distance_stats(), a_before);
    EXPECT_GT(a_work[0] + a_work[1], 0u);
    EXPECT_EQ(a_work, Work(b_must->distance_stats(), b_before));
  }
}

TEST_F(PersistenceTest, RestoredSystemSupportsLiveIngestion) {
  MqaConfig config = SmallConfig();
  config.corpus_size = 300;
  auto original = Coordinator::Create(config);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(SaveSystemState(**original, dir_.string()).ok());
  auto restored = LoadSystemState(dir_.string());
  ASSERT_TRUE(restored.ok());
  Rng rng(1);
  auto id =
      (*restored)->IngestObject((*restored)->world().MakeObject(0, &rng));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ((*restored)->kb().size(), 301u);
}

TEST_F(PersistenceTest, HnswSystemsRebuildOnLoad) {
  MqaConfig config = SmallConfig();
  config.corpus_size = 300;
  config.index.algorithm = "hnsw";
  auto original = Coordinator::Create(config);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(SaveSystemState(**original, dir_.string()).ok());
  EXPECT_FALSE(std::filesystem::exists(dir_ / "index.bin"));
  auto restored = LoadSystemState(dir_.string());
  ASSERT_TRUE(restored.ok());
  EXPECT_NE((*restored)->monitor().Render().find("rebuilt index hnsw"),
            std::string::npos);
  UserQuery query;
  query.text = "find " + (*restored)->world().ConceptName(1);
  EXPECT_TRUE((*restored)->Ask(query).ok());
}

TEST_F(PersistenceTest, LoadRejectsMissingOrCorruptedFiles) {
  EXPECT_FALSE(LoadSystemState((dir_ / "nonexistent").string()).ok());

  MqaConfig config = SmallConfig();
  config.corpus_size = 200;
  auto original = Coordinator::Create(config);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(SaveSystemState(**original, dir_.string()).ok());
  // Corrupt the store.
  {
    std::ofstream out(dir_ / "store.bin", std::ios::binary);
    out << "corrupted";
  }
  EXPECT_FALSE(LoadSystemState(dir_.string()).ok());
}

TEST_F(PersistenceTest, ConfigTextRoundTrips) {
  MqaConfig config = SmallConfig();
  config.framework = "je";
  config.temperature = 0.75f;
  config.rewrite_vague_queries = false;
  auto parsed = ParseMqaConfigText(MqaConfigToText(config));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->framework, "je");
  EXPECT_NEAR(parsed->temperature, 0.75f, 1e-3);
  EXPECT_FALSE(parsed->rewrite_vague_queries);
  EXPECT_EQ(parsed->corpus_size, config.corpus_size);
  EXPECT_EQ(parsed->world.num_concepts, config.world.num_concepts);
}

}  // namespace
}  // namespace mqa
