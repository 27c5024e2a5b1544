// Full-system persistence: save a built system, reopen it without
// re-encoding or rebuilding, and keep answering identically.

#include "core/persistence.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>
#include <unistd.h>

#include "core/config_parser.h"
#include "core_test_util.h"
#include "retrieval/must.h"
#include "shard/sharded_retrieval.h"

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

/// Every key the config parser accepts, each set away from its default.
constexpr char kEveryKey[] =
    "enable_knowledge_base = false\n"
    "corpus_size = 1234\n"
    "kb_name = my-kb\n"
    "encoder = sim-resnet-lstm\n"
    "embedding_dim = 24\n"
    "learn_weights = false\n"
    "training_triplets = 321\n"
    "index.algorithm = hnsw\n"
    "index.max_degree = 20\n"
    "index.build_beam = 80\n"
    "index.alpha = 1.2345\n"
    "simd.level = scalar\n"
    "framework = je\n"
    "search.k = 7\n"
    "search.beam_width = 96\n"
    "rewrite_vague_queries = false\n"
    "llm = none\n"
    "temperature = 0.75\n"
    "resilience.enable = true\n"
    "resilience.llm_max_attempts = 5\n"
    "resilience.llm_backoff_ms = 12.5\n"
    "resilience.llm_deadline_ms = 250\n"
    "resilience.breaker_threshold = 7\n"
    "resilience.breaker_open_ms = 1500\n"
    "resilience.encoder_max_attempts = 4\n"
    "resilience.io_error_budget = 3\n"
    "serving.num_workers = 2\n"
    "serving.queue_capacity = 128\n"
    "serving.default_deadline_ms = 250\n"
    "serving.breaker_threshold = 4\n"
    "serving.breaker_open_ms = 750\n"
    "shard.enable = true\n"
    "shard.num_shards = 3\n"
    "shard.quorum = 2\n"
    "shard.partition = hash\n"
    "shard.deadline_fraction = 0.3\n"
    "shard.fanout_threads = 2\n"
    "shard.breaker_threshold = 3\n"
    "shard.breaker_open_ms = 250\n"
    "observability.trace_turns = false\n"
    "observability.explain_turns = true\n"
    "observability.trace_build = false\n"
    "seed = 777\n"
    "world.num_concepts = 9\n"
    "world.latent_dim = 24\n"
    "world.raw_image_dim = 40\n"
    "world.seed = 31\n"
    "world.words_per_concept = 6\n"
    "world.adjectives_per_noun = 3\n"
    "world.extra_modalities = 1\n"
    "world.object_noise = 0.2\n"
    "world.adjective_dropout = 0.15\n"
    "world.image_noise = 0.07\n"
    "world.text_noise = 0.5\n";

/// The `key = value` lines of a config text, by key.
std::map<std::string, std::string> KeyValues(const std::string& text) {
  std::map<std::string, std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const size_t eq = line.find(" = ");
    if (eq != std::string::npos) out[line.substr(0, eq)] = line.substr(eq + 3);
  }
  return out;
}

/// Every setting a config key names, compared exactly. (HNSW's m and
/// ef_construction have no key: index.max_degree and index.build_beam
/// derive them.)
void ExpectSameSettings(const MqaConfig& a, const MqaConfig& b) {
  EXPECT_EQ(a.enable_knowledge_base, b.enable_knowledge_base);
  EXPECT_EQ(a.corpus_size, b.corpus_size);
  EXPECT_EQ(a.kb_name, b.kb_name);
  EXPECT_EQ(a.encoder_preset, b.encoder_preset);
  EXPECT_EQ(a.embedding_dim, b.embedding_dim);
  EXPECT_EQ(a.learn_weights, b.learn_weights);
  EXPECT_EQ(a.num_training_triplets, b.num_training_triplets);
  EXPECT_EQ(a.index.algorithm, b.index.algorithm);
  EXPECT_EQ(a.index.graph.max_degree, b.index.graph.max_degree);
  EXPECT_EQ(a.index.graph.build_beam, b.index.graph.build_beam);
  EXPECT_EQ(a.index.graph.alpha, b.index.graph.alpha);
  EXPECT_EQ(a.index.disk.io_error_budget, b.index.disk.io_error_budget);
  EXPECT_EQ(a.simd_level, b.simd_level);
  EXPECT_EQ(a.framework, b.framework);
  EXPECT_EQ(a.search.k, b.search.k);
  EXPECT_EQ(a.search.beam_width, b.search.beam_width);
  EXPECT_EQ(a.rewrite_vague_queries, b.rewrite_vague_queries);
  EXPECT_EQ(a.llm, b.llm);
  EXPECT_EQ(a.temperature, b.temperature);
  EXPECT_EQ(a.resilience.enable, b.resilience.enable);
  EXPECT_EQ(a.resilience.llm_max_attempts, b.resilience.llm_max_attempts);
  EXPECT_EQ(a.resilience.llm_initial_backoff_ms,
            b.resilience.llm_initial_backoff_ms);
  EXPECT_EQ(a.resilience.llm_overall_deadline_ms,
            b.resilience.llm_overall_deadline_ms);
  EXPECT_EQ(a.resilience.breaker_failure_threshold,
            b.resilience.breaker_failure_threshold);
  EXPECT_EQ(a.resilience.breaker_open_ms, b.resilience.breaker_open_ms);
  EXPECT_EQ(a.resilience.encoder_max_attempts,
            b.resilience.encoder_max_attempts);
  EXPECT_EQ(a.serving.num_workers, b.serving.num_workers);
  EXPECT_EQ(a.serving.queue_capacity, b.serving.queue_capacity);
  EXPECT_EQ(a.serving.default_deadline_ms, b.serving.default_deadline_ms);
  EXPECT_EQ(a.serving.breaker_failure_threshold,
            b.serving.breaker_failure_threshold);
  EXPECT_EQ(a.serving.breaker_open_ms, b.serving.breaker_open_ms);
  EXPECT_EQ(a.shard.enable, b.shard.enable);
  EXPECT_EQ(a.shard.num_shards, b.shard.num_shards);
  EXPECT_EQ(a.shard.quorum, b.shard.quorum);
  EXPECT_EQ(a.shard.partition, b.shard.partition);
  EXPECT_EQ(a.shard.deadline_fraction, b.shard.deadline_fraction);
  EXPECT_EQ(a.shard.fanout_threads, b.shard.fanout_threads);
  EXPECT_EQ(a.shard.breaker_failure_threshold,
            b.shard.breaker_failure_threshold);
  EXPECT_EQ(a.shard.breaker_open_ms, b.shard.breaker_open_ms);
  EXPECT_EQ(a.observability.trace_turns, b.observability.trace_turns);
  EXPECT_EQ(a.observability.explain_turns, b.observability.explain_turns);
  EXPECT_EQ(a.observability.trace_build, b.observability.trace_build);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.world.num_concepts, b.world.num_concepts);
  EXPECT_EQ(a.world.latent_dim, b.world.latent_dim);
  EXPECT_EQ(a.world.raw_image_dim, b.world.raw_image_dim);
  EXPECT_EQ(a.world.seed, b.world.seed);
  EXPECT_EQ(a.world.words_per_concept, b.world.words_per_concept);
  EXPECT_EQ(a.world.adjectives_per_noun, b.world.adjectives_per_noun);
  EXPECT_EQ(a.world.num_extra_modalities, b.world.num_extra_modalities);
  EXPECT_EQ(a.world.object_noise, b.world.object_noise);
  EXPECT_EQ(a.world.text_adjective_dropout, b.world.text_adjective_dropout);
  EXPECT_EQ(a.world.modality_noise, b.world.modality_noise);
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

TEST_F(PersistenceTest, EveryConfigKeyRoundTrips) {
  auto set = ParseMqaConfigText(kEveryKey);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  // Every key written for the defaults reads differently for `set`, so
  // kEveryKey covers each key the writer knows.
  const auto defaults = KeyValues(MqaConfigToText(MqaConfig()));
  const auto written = KeyValues(MqaConfigToText(*set));
  EXPECT_EQ(written.size(), defaults.size());
  for (const auto& [key, value] : defaults) {
    EXPECT_NE(written.count(key) ? written.at(key) : value, value) << key;
  }
  auto back = ParseMqaConfigText(MqaConfigToText(*set));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameSettings(*set, *back);

  // Settings made in code keep full precision too.
  MqaConfig config = SmallConfig();
  config.shard.enable = true;
  config.shard.num_shards = 3;
  config.shard.deadline_fraction = 0.3;
  config.resilience.enable = true;
  config.serving.num_workers = 2;
  config.observability.trace_turns = false;
  config.simd_level = "scalar";
  config.index.graph.alpha = 1.2345f;
  config.temperature = 0.1f;
  back = ParseMqaConfigText(MqaConfigToText(config));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameSettings(config, *back);
}

TEST_F(PersistenceTest, ShardedSystemReopensSharded) {
  MqaConfig config = SmallConfig();
  config.corpus_size = 200;
  config.shard.enable = true;
  config.shard.num_shards = 3;
  auto original = Coordinator::Create(config);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  ASSERT_EQ((*original)->framework()->name(), "sharded:must");
  ASSERT_TRUE(SaveSystemState(**original, dir_.string()).ok());

  auto restored = LoadSystemState(dir_.string());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->framework()->name(), "sharded:must");
  auto* sharded = dynamic_cast<ShardedRetrieval*>((*restored)->framework());
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->num_shards(), 3u);
}

}  // namespace
}  // namespace mqa
