#include "core/config_parser.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/string_util.h"

namespace mqa {

namespace {

Result<bool> ParseBool(const std::string& key, const std::string& value) {
  const std::string v = ToLower(value);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  return Status::InvalidArgument("bad boolean for " + key + ": " + value);
}

Result<uint64_t> ParseUint(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad integer for " + key + ": " + value);
  }
  return static_cast<uint64_t>(v);
}

/// A count that must fit the uint32_t field it fills and be at least 1.
Result<uint32_t> ParseUint32Count(const std::string& key,
                                  const std::string& value) {
  MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
  if (v == 0 || v > UINT32_MAX) {
    return Status::InvalidArgument(key + " must be in [1, " +
                                   std::to_string(UINT32_MAX) + "]: " + value);
  }
  return static_cast<uint32_t>(v);
}

Result<float> ParseFloat(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const float v = std::strtof(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad float for " + key + ": " + value);
  }
  return v;
}

void EnsureNoiseSize(MqaConfig* config) {
  if (config->world.modality_noise.size() < 2) {
    config->world.modality_noise.resize(2, 0.1f);
  }
}

}  // namespace

Result<MqaConfig> ParseMqaConfig(const std::vector<std::string>& lines) {
  MqaConfig config;
  for (size_t lineno = 0; lineno < lines.size(); ++lineno) {
    const std::string line = Trim(lines[lineno]);
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("line " + std::to_string(lineno + 1) +
                                     ": expected key = value");
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) {
      return Status::InvalidArgument("line " + std::to_string(lineno + 1) +
                                     ": empty key or value");
    }

    if (key == "enable_knowledge_base") {
      MQA_ASSIGN_OR_RETURN(config.enable_knowledge_base,
                           ParseBool(key, value));
    } else if (key == "corpus_size") {
      MQA_ASSIGN_OR_RETURN(config.corpus_size, ParseUint(key, value));
    } else if (key == "kb_name") {
      config.kb_name = value;
    } else if (key == "encoder") {
      config.encoder_preset = value;
    } else if (key == "embedding_dim") {
      MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
      config.embedding_dim = static_cast<uint32_t>(v);
    } else if (key == "learn_weights") {
      MQA_ASSIGN_OR_RETURN(config.learn_weights, ParseBool(key, value));
    } else if (key == "training_triplets") {
      MQA_ASSIGN_OR_RETURN(config.num_training_triplets,
                           ParseUint(key, value));
    } else if (key == "index.algorithm") {
      config.index.algorithm = value;
    } else if (key == "index.max_degree") {
      MQA_ASSIGN_OR_RETURN(uint32_t v, ParseUint32Count(key, value));
      config.index.graph.max_degree = v;
      config.index.hnsw.m = std::max<uint32_t>(2, v / 2);
    } else if (key == "index.build_beam") {
      MQA_ASSIGN_OR_RETURN(uint32_t v, ParseUint32Count(key, value));
      config.index.graph.build_beam = v;
      config.index.hnsw.ef_construction = v;
    } else if (key == "index.alpha") {
      // NaN would switch RobustPrune's occlusion off, and alpha < 1
      // occludes nearly every candidate (see BuildGraphIndex).
      MQA_ASSIGN_OR_RETURN(float alpha, ParseFloat(key, value));
      if (!std::isfinite(alpha) || alpha < 1.0f) {
        return Status::InvalidArgument(
            "index.alpha must be finite and >= 1: " + value);
      }
      config.index.graph.alpha = alpha;
    } else if (key == "simd.level") {
      config.simd_level = value;
    } else if (key == "framework") {
      config.framework = value;
    } else if (key == "search.k") {
      MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
      if (v == 0) return Status::InvalidArgument("search.k must be > 0");
      config.search.k = v;
    } else if (key == "search.beam_width") {
      MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
      config.search.beam_width = v;
    } else if (key == "rewrite_vague_queries") {
      MQA_ASSIGN_OR_RETURN(config.rewrite_vague_queries,
                           ParseBool(key, value));
    } else if (key == "llm") {
      config.llm = value;
    } else if (key == "temperature") {
      MQA_ASSIGN_OR_RETURN(config.temperature, ParseFloat(key, value));
    } else if (key == "resilience.enable") {
      MQA_ASSIGN_OR_RETURN(config.resilience.enable, ParseBool(key, value));
    } else if (key == "resilience.llm_max_attempts") {
      MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
      config.resilience.llm_max_attempts = static_cast<int>(v);
    } else if (key == "resilience.llm_backoff_ms") {
      MQA_ASSIGN_OR_RETURN(float v, ParseFloat(key, value));
      config.resilience.llm_initial_backoff_ms = v;
    } else if (key == "resilience.llm_deadline_ms") {
      MQA_ASSIGN_OR_RETURN(float v, ParseFloat(key, value));
      config.resilience.llm_overall_deadline_ms = v;
    } else if (key == "resilience.breaker_threshold") {
      MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
      config.resilience.breaker_failure_threshold = static_cast<int>(v);
    } else if (key == "resilience.breaker_open_ms") {
      MQA_ASSIGN_OR_RETURN(float v, ParseFloat(key, value));
      config.resilience.breaker_open_ms = v;
    } else if (key == "resilience.encoder_max_attempts") {
      MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
      config.resilience.encoder_max_attempts = static_cast<int>(v);
    } else if (key == "resilience.io_error_budget") {
      MQA_ASSIGN_OR_RETURN(config.index.disk.io_error_budget,
                           ParseUint(key, value));
    } else if (key == "serving.num_workers") {
      MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
      config.serving.num_workers = static_cast<size_t>(v);
    } else if (key == "serving.queue_capacity") {
      MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
      config.serving.queue_capacity = static_cast<size_t>(v);
    } else if (key == "serving.default_deadline_ms") {
      MQA_ASSIGN_OR_RETURN(float v, ParseFloat(key, value));
      config.serving.default_deadline_ms = v;
    } else if (key == "serving.breaker_threshold") {
      MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
      config.serving.breaker_failure_threshold = static_cast<int>(v);
    } else if (key == "serving.breaker_open_ms") {
      MQA_ASSIGN_OR_RETURN(float v, ParseFloat(key, value));
      config.serving.breaker_open_ms = v;
    } else if (key == "shard.enable") {
      MQA_ASSIGN_OR_RETURN(config.shard.enable, ParseBool(key, value));
    } else if (key == "shard.num_shards") {
      MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
      config.shard.num_shards = static_cast<size_t>(v);
    } else if (key == "shard.quorum") {
      MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
      config.shard.quorum = static_cast<size_t>(v);
    } else if (key == "shard.partition") {
      config.shard.partition = value;
    } else if (key == "shard.hedge_percentile") {
      MQA_ASSIGN_OR_RETURN(float v, ParseFloat(key, value));
      config.shard.hedge_percentile = v;
    } else if (key == "shard.hedge_min_samples") {
      MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
      config.shard.hedge_min_samples = static_cast<size_t>(v);
    } else if (key == "shard.deadline_fraction") {
      MQA_ASSIGN_OR_RETURN(float v, ParseFloat(key, value));
      config.shard.deadline_fraction = v;
    } else if (key == "shard.fanout_threads") {
      MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
      config.shard.fanout_threads = static_cast<size_t>(v);
    } else if (key == "shard.breaker_threshold") {
      MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
      config.shard.breaker_failure_threshold = static_cast<int>(v);
    } else if (key == "shard.breaker_open_ms") {
      MQA_ASSIGN_OR_RETURN(float v, ParseFloat(key, value));
      config.shard.breaker_open_ms = v;
    } else if (key == "observability.trace_turns") {
      MQA_ASSIGN_OR_RETURN(config.observability.trace_turns,
                           ParseBool(key, value));
    } else if (key == "observability.explain_turns") {
      MQA_ASSIGN_OR_RETURN(config.observability.explain_turns,
                           ParseBool(key, value));
    } else if (key == "observability.trace_build") {
      MQA_ASSIGN_OR_RETURN(config.observability.trace_build,
                           ParseBool(key, value));
    } else if (key == "seed") {
      MQA_ASSIGN_OR_RETURN(config.seed, ParseUint(key, value));
      config.world.seed = config.seed;
    } else if (key == "world.num_concepts") {
      MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
      config.world.num_concepts = static_cast<uint32_t>(v);
    } else if (key == "world.latent_dim") {
      MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
      config.world.latent_dim = static_cast<uint32_t>(v);
      if (config.world.raw_image_dim < v) {
        config.world.raw_image_dim = static_cast<uint32_t>(v) * 2;
      }
    } else if (key == "world.seed") {
      MQA_ASSIGN_OR_RETURN(config.world.seed, ParseUint(key, value));
    } else if (key == "world.raw_image_dim") {
      MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
      config.world.raw_image_dim = static_cast<uint32_t>(v);
    } else if (key == "world.words_per_concept") {
      MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
      config.world.words_per_concept = static_cast<uint32_t>(v);
    } else if (key == "world.adjectives_per_noun") {
      MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
      config.world.adjectives_per_noun = static_cast<uint32_t>(v);
    } else if (key == "world.extra_modalities") {
      MQA_ASSIGN_OR_RETURN(uint64_t v, ParseUint(key, value));
      config.world.num_extra_modalities = static_cast<uint32_t>(v);
    } else if (key == "world.object_noise") {
      MQA_ASSIGN_OR_RETURN(config.world.object_noise, ParseFloat(key, value));
    } else if (key == "world.adjective_dropout") {
      MQA_ASSIGN_OR_RETURN(config.world.text_adjective_dropout,
                           ParseFloat(key, value));
    } else if (key == "world.image_noise") {
      EnsureNoiseSize(&config);
      MQA_ASSIGN_OR_RETURN(config.world.modality_noise[0],
                           ParseFloat(key, value));
    } else if (key == "world.text_noise") {
      EnsureNoiseSize(&config);
      MQA_ASSIGN_OR_RETURN(config.world.modality_noise[1],
                           ParseFloat(key, value));
    } else {
      return Status::InvalidArgument("unknown config key: " + key);
    }
  }
  return config;
}

Result<MqaConfig> ParseMqaConfigText(const std::string& text) {
  return ParseMqaConfig(Split(text, '\n'));
}

}  // namespace mqa
