#include "core/config_parser.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace mqa {
namespace {

TEST(ConfigParserTest, EmptyGivesDefaults) {
  auto config = ParseMqaConfig({});
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->framework, "must");
  EXPECT_EQ(config->index.algorithm, "mqa-hybrid");
  EXPECT_TRUE(config->enable_knowledge_base);
}

TEST(ConfigParserTest, ParsesAllKeyKinds) {
  auto config = ParseMqaConfigText(
      "# a comment\n"
      "\n"
      "corpus_size = 1234\n"
      "framework = je\n"
      "index.algorithm = hnsw\n"
      "index.max_degree = 20\n"
      "search.k = 7\n"
      "temperature = 0.8\n"
      "learn_weights = false\n"
      "llm = none\n"
      "world.num_concepts = 9\n"
      "world.text_noise = 0.5\n"
      "kb_name = my-kb\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->corpus_size, 1234u);
  EXPECT_EQ(config->framework, "je");
  EXPECT_EQ(config->index.algorithm, "hnsw");
  EXPECT_EQ(config->index.graph.max_degree, 20u);
  EXPECT_EQ(config->index.hnsw.m, 10u);
  EXPECT_EQ(config->search.k, 7u);
  EXPECT_FLOAT_EQ(config->temperature, 0.8f);
  EXPECT_FALSE(config->learn_weights);
  EXPECT_EQ(config->llm, "none");
  EXPECT_EQ(config->world.num_concepts, 9u);
  EXPECT_FLOAT_EQ(config->world.modality_noise[1], 0.5f);
  EXPECT_EQ(config->kb_name, "my-kb");
}

TEST(ConfigParserTest, BooleanSpellings) {
  for (const char* t : {"true", "1", "yes", "on"}) {
    auto c = ParseMqaConfigText(std::string("learn_weights = ") + t);
    ASSERT_TRUE(c.ok());
    EXPECT_TRUE(c->learn_weights) << t;
  }
  for (const char* f : {"false", "0", "no", "off"}) {
    auto c = ParseMqaConfigText(std::string("learn_weights = ") + f);
    ASSERT_TRUE(c.ok());
    EXPECT_FALSE(c->learn_weights) << f;
  }
}

TEST(ConfigParserTest, ParsesObservabilityKeys) {
  auto config = ParseMqaConfigText(
      "observability.trace_turns = false\n"
      "observability.explain_turns = true\n"
      "observability.trace_build = false\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_FALSE(config->observability.trace_turns);
  EXPECT_TRUE(config->observability.explain_turns);
  EXPECT_FALSE(config->observability.trace_build);
  // Defaults: tracing on, the explain view opt-in.
  auto defaults = ParseMqaConfig({});
  ASSERT_TRUE(defaults.ok());
  EXPECT_TRUE(defaults->observability.trace_turns);
  EXPECT_FALSE(defaults->observability.explain_turns);
  EXPECT_TRUE(defaults->observability.trace_build);
}

TEST(ConfigParserTest, ParsesServingKeys) {
  auto config = ParseMqaConfigText(
      "serving.num_workers = 8\n"
      "serving.queue_capacity = 128\n"
      "serving.default_deadline_ms = 250\n"
      "serving.breaker_threshold = 4\n"
      "serving.breaker_open_ms = 750\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->serving.num_workers, 8u);
  EXPECT_EQ(config->serving.queue_capacity, 128u);
  EXPECT_DOUBLE_EQ(config->serving.default_deadline_ms, 250.0);
  EXPECT_EQ(config->serving.breaker_failure_threshold, 4);
  EXPECT_DOUBLE_EQ(config->serving.breaker_open_ms, 750.0);
  // Defaults: no default deadline.
  auto defaults = ParseMqaConfig({});
  ASSERT_TRUE(defaults.ok());
  EXPECT_DOUBLE_EQ(defaults->serving.default_deadline_ms, 0.0);
}

TEST(ConfigParserTest, ParsesShardKeys) {
  auto config = ParseMqaConfigText(
      "shard.enable = true\n"
      "shard.num_shards = 8\n"
      "shard.quorum = 5\n"
      "shard.partition = hash\n"
      "shard.deadline_fraction = 0.75\n"
      "shard.fanout_threads = 2\n"
      "shard.breaker_threshold = 3\n"
      "shard.breaker_open_ms = 250\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_TRUE(config->shard.enable);
  EXPECT_EQ(config->shard.num_shards, 8u);
  EXPECT_EQ(config->shard.quorum, 5u);
  EXPECT_EQ(config->shard.partition, "hash");
  EXPECT_NEAR(config->shard.deadline_fraction, 0.75, 1e-6);
  EXPECT_EQ(config->shard.fanout_threads, 2u);
  EXPECT_EQ(config->shard.breaker_failure_threshold, 3);
  EXPECT_DOUBLE_EQ(config->shard.breaker_open_ms, 250.0);
  // Default: sharding off — the single-index path, exactly as before.
  auto defaults = ParseMqaConfig({});
  ASSERT_TRUE(defaults.ok());
  EXPECT_FALSE(defaults->shard.enable);
}

TEST(ConfigParserTest, RejectsUnknownKey) {
  auto config = ParseMqaConfigText("not_a_key = 5");
  EXPECT_FALSE(config.ok());
  EXPECT_NE(config.status().message().find("not_a_key"), std::string::npos);
}

TEST(ConfigParserTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseMqaConfigText("corpus_size").ok());
  EXPECT_FALSE(ParseMqaConfigText("corpus_size =").ok());
  EXPECT_FALSE(ParseMqaConfigText("= 5").ok());
  EXPECT_FALSE(ParseMqaConfigText("corpus_size = banana").ok());
  EXPECT_FALSE(ParseMqaConfigText("temperature = warm").ok());
  EXPECT_FALSE(ParseMqaConfigText("learn_weights = maybe").ok());
  // k = 0 would parse and then fail every turn with "k must be > 0".
  EXPECT_FALSE(ParseMqaConfigText("search.k = 0").ok());
}

TEST(ConfigParserTest, RejectsGraphBuildParamsOutOfRange) {
  // Each would parse and build a broken graph: a NaN alpha switches
  // occlusion off, an alpha below 1 strips the graph to a hub, and a
  // degree or beam past 32 bits would wrap through the uint32_t fields.
  const std::pair<const char*, const char*> bad[] = {
      {"index.alpha", "nan"},
      {"index.alpha", "-1"},
      {"index.alpha", "0.5"},
      {"index.alpha", "inf"},
      {"index.alpha", "1e39"},
      {"index.max_degree", "0"},
      {"index.max_degree", "5000000000"},
      {"index.build_beam", "0"},
      {"index.build_beam", "5000000000"},
  };
  for (const auto& [key, value] : bad) {
    auto config = ParseMqaConfigText(std::string(key) + " = " + value);
    EXPECT_FALSE(config.ok()) << key << " = " << value;
    if (!config.ok()) {
      EXPECT_NE(config.status().message().find(key), std::string::npos)
          << config.status().message();
    }
  }
  auto edges = ParseMqaConfigText(
      "index.alpha = 1\nindex.max_degree = 4294967295\n"
      "index.build_beam = 1\n");
  ASSERT_TRUE(edges.ok()) << edges.status().ToString();
  EXPECT_EQ(edges->index.graph.alpha, 1.0f);
  EXPECT_EQ(edges->index.graph.max_degree, 4294967295u);
  EXPECT_EQ(edges->index.graph.build_beam, 1u);
}

TEST(ConfigParserTest, SeedPropagatesToWorld) {
  auto config = ParseMqaConfigText("seed = 777");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->seed, 777u);
  EXPECT_EQ(config->world.seed, 777u);
}

TEST(ConfigParserTest, LatentDimGrowsRawImageDim) {
  auto config = ParseMqaConfigText("world.latent_dim = 128");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->world.latent_dim, 128u);
  EXPECT_GE(config->world.raw_image_dim, 128u);
}

TEST(ConfigParserTest, ParsedConfigBootsTheSystem) {
  auto config = ParseMqaConfigText(
      "corpus_size = 300\n"
      "world.num_concepts = 8\n"
      "world.latent_dim = 16\n"
      "embedding_dim = 16\n"
      "training_triplets = 200\n"
      "index.max_degree = 10\n"
      "search.k = 3\n");
  ASSERT_TRUE(config.ok());
  // (Coordinator creation is covered in coordinator_test; here we only
  // check the values compose into a bootable config shape.)
  EXPECT_EQ(config->corpus_size, 300u);
  EXPECT_EQ(config->embedding_dim, 16u);
  EXPECT_EQ(config->num_training_triplets, 200u);
}

}  // namespace
}  // namespace mqa
