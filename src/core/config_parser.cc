#include "core/config_parser.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/string_util.h"

namespace mqa {

namespace {

Result<bool> ParseBool(const std::string& key, const std::string& value) {
  const std::string v = ToLower(value);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  return Status::InvalidArgument("bad boolean for " + key + ": " + value);
}

/// Parses `value` into a field of type T. Integers must fit the field.
template <typename T>
Status ParseInto(const std::string& key, const std::string& value, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    MQA_ASSIGN_OR_RETURN(*out, ParseBool(key, value));
  } else if constexpr (std::is_same_v<T, std::string>) {
    *out = value;
  } else if constexpr (std::is_floating_point_v<T>) {
    char* end = nullptr;
    if constexpr (std::is_same_v<T, float>) {
      *out = std::strtof(value.c_str(), &end);
    } else {
      *out = std::strtod(value.c_str(), &end);
    }
    if (end == value.c_str() || *end != '\0') {
      return Status::InvalidArgument("bad float for " + key + ": " + value);
    }
  } else {
    const char* last = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), last, *out);
    if (ec == std::errc::result_out_of_range) {
      return Status::InvalidArgument(key + " is out of range: " + value);
    }
    if (ec != std::errc() || ptr != last) {
      return Status::InvalidArgument("bad integer for " + key + ": " + value);
    }
  }
  return Status::OK();
}

/// Renders a field so that ParseInto reads back the same value: floats
/// as the shortest text that round-trips.
template <typename T>
std::string FormatValue(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }
}

/// One configuration key: `parse` applies a value to a config, and
/// `write` renders the config's setting back in a form `parse` accepts
/// (empty = nothing to write). The parser and the writer both read
/// ConfigKeys(), so every key the parser accepts is also written.
struct ConfigKey {
  const char* name;
  std::function<Status(const std::string& value, MqaConfig* config)> parse;
  std::function<std::string(const MqaConfig& config)> write;
};

/// A key bound to one field (`field(config)` returns a reference to it),
/// parsed by the field's type. `then` runs after a successful parse, to
/// validate the value or derive another setting from it.
template <typename Field>
ConfigKey Bind(const char* name, Field field,
               Status (*then)(MqaConfig*) = nullptr) {
  return ConfigKey{
      name,
      [name, field, then](const std::string& value, MqaConfig* c) -> Status {
        MQA_RETURN_NOT_OK(ParseInto(name, value, &field(*c)));
        return then != nullptr ? then(c) : Status::OK();
      },
      [field](const MqaConfig& c) { return FormatValue(field(c)); }};
}

/// world.image_noise / world.text_noise: one slot of modality_noise,
/// which a parse grows to two slots (missing slots default to 0.1).
ConfigKey NoiseKey(const char* name, size_t slot) {
  return ConfigKey{
      name,
      [name, slot](const std::string& value, MqaConfig* c) -> Status {
        std::vector<float>& noise = c->world.modality_noise;
        if (noise.size() < 2) noise.resize(2, 0.1f);
        return ParseInto(name, value, &noise[slot]);
      },
      [slot](const MqaConfig& c) {
        const std::vector<float>& noise = c.world.modality_noise;
        return slot < noise.size() ? FormatValue(noise[slot]) : std::string();
      }};
}

Status CheckCount(const char* key, uint32_t v) {
  return v > 0 ? Status::OK()
               : Status::InvalidArgument(std::string(key) + " must be >= 1");
}

/// Every key, in the order MqaConfigToText writes them. Order matters
/// where a key derives another: `seed` sets world.seed, and
/// world.latent_dim may grow world.raw_image_dim, so each precedes the
/// key that overrides what it derived.
const std::vector<ConfigKey>& ConfigKeys() {
  static const std::vector<ConfigKey> keys = {
      Bind("enable_knowledge_base",
           [](auto& c) -> auto& { return c.enable_knowledge_base; }),
      Bind("corpus_size", [](auto& c) -> auto& { return c.corpus_size; }),
      Bind("kb_name", [](auto& c) -> auto& { return c.kb_name; }),
      Bind("encoder", [](auto& c) -> auto& { return c.encoder_preset; }),
      Bind("embedding_dim", [](auto& c) -> auto& { return c.embedding_dim; }),
      Bind("learn_weights", [](auto& c) -> auto& { return c.learn_weights; }),
      Bind("training_triplets",
           [](auto& c) -> auto& { return c.num_training_triplets; }),
      Bind("index.algorithm",
           [](auto& c) -> auto& { return c.index.algorithm; }),
      Bind("index.max_degree",
           [](auto& c) -> auto& { return c.index.graph.max_degree; },
           [](MqaConfig* c) {
             const uint32_t v = c->index.graph.max_degree;
             c->index.hnsw.m = std::max<uint32_t>(2, v / 2);
             return CheckCount("index.max_degree", v);
           }),
      Bind("index.build_beam",
           [](auto& c) -> auto& { return c.index.graph.build_beam; },
           [](MqaConfig* c) {
             c->index.hnsw.ef_construction = c->index.graph.build_beam;
             return CheckCount("index.build_beam", c->index.graph.build_beam);
           }),
      // NaN would switch RobustPrune's occlusion off, and alpha < 1
      // occludes nearly every candidate (see BuildGraphIndex).
      Bind("index.alpha", [](auto& c) -> auto& { return c.index.graph.alpha; },
           [](MqaConfig* c) {
             const float alpha = c->index.graph.alpha;
             if (std::isfinite(alpha) && alpha >= 1.0f) return Status::OK();
             return Status::InvalidArgument(
                 "index.alpha must be finite and >= 1: " + FormatValue(alpha));
           }),
      Bind("simd.level", [](auto& c) -> auto& { return c.simd_level; }),
      Bind("framework", [](auto& c) -> auto& { return c.framework; }),
      Bind("search.k", [](auto& c) -> auto& { return c.search.k; },
           [](MqaConfig* c) {
             return c->search.k > 0
                        ? Status::OK()
                        : Status::InvalidArgument("search.k must be > 0");
           }),
      Bind("search.beam_width",
           [](auto& c) -> auto& { return c.search.beam_width; }),
      Bind("rewrite_vague_queries",
           [](auto& c) -> auto& { return c.rewrite_vague_queries; }),
      Bind("llm", [](auto& c) -> auto& { return c.llm; }),
      Bind("temperature", [](auto& c) -> auto& { return c.temperature; }),
      Bind("resilience.enable",
           [](auto& c) -> auto& { return c.resilience.enable; }),
      Bind("resilience.llm_max_attempts",
           [](auto& c) -> auto& { return c.resilience.llm_max_attempts; }),
      Bind("resilience.llm_backoff_ms",
           [](auto& c) -> auto& {
             return c.resilience.llm_initial_backoff_ms;
           }),
      Bind("resilience.llm_deadline_ms",
           [](auto& c) -> auto& {
             return c.resilience.llm_overall_deadline_ms;
           }),
      Bind("resilience.breaker_threshold",
           [](auto& c) -> auto& {
             return c.resilience.breaker_failure_threshold;
           }),
      Bind("resilience.breaker_open_ms",
           [](auto& c) -> auto& { return c.resilience.breaker_open_ms; }),
      Bind("resilience.encoder_max_attempts",
           [](auto& c) -> auto& { return c.resilience.encoder_max_attempts; }),
      Bind("resilience.io_error_budget",
           [](auto& c) -> auto& { return c.index.disk.io_error_budget; }),
      Bind("serving.num_workers",
           [](auto& c) -> auto& { return c.serving.num_workers; }),
      Bind("serving.queue_capacity",
           [](auto& c) -> auto& { return c.serving.queue_capacity; }),
      Bind("serving.default_deadline_ms",
           [](auto& c) -> auto& { return c.serving.default_deadline_ms; }),
      Bind("serving.breaker_threshold",
           [](auto& c) -> auto& {
             return c.serving.breaker_failure_threshold;
           }),
      Bind("serving.breaker_open_ms",
           [](auto& c) -> auto& { return c.serving.breaker_open_ms; }),
      Bind("shard.enable", [](auto& c) -> auto& { return c.shard.enable; }),
      Bind("shard.num_shards",
           [](auto& c) -> auto& { return c.shard.num_shards; }),
      Bind("shard.quorum", [](auto& c) -> auto& { return c.shard.quorum; }),
      Bind("shard.partition",
           [](auto& c) -> auto& { return c.shard.partition; }),
      Bind("shard.deadline_fraction",
           [](auto& c) -> auto& { return c.shard.deadline_fraction; }),
      Bind("shard.fanout_threads",
           [](auto& c) -> auto& { return c.shard.fanout_threads; }),
      Bind("shard.breaker_threshold",
           [](auto& c) -> auto& { return c.shard.breaker_failure_threshold; }),
      Bind("shard.breaker_open_ms",
           [](auto& c) -> auto& { return c.shard.breaker_open_ms; }),
      Bind("observability.trace_turns",
           [](auto& c) -> auto& { return c.observability.trace_turns; }),
      Bind("observability.explain_turns",
           [](auto& c) -> auto& { return c.observability.explain_turns; }),
      Bind("observability.trace_build",
           [](auto& c) -> auto& { return c.observability.trace_build; }),
      Bind("seed", [](auto& c) -> auto& { return c.seed; },
           [](MqaConfig* c) {
             c->world.seed = c->seed;
             return Status::OK();
           }),
      Bind("world.num_concepts",
           [](auto& c) -> auto& { return c.world.num_concepts; }),
      Bind("world.latent_dim",
           [](auto& c) -> auto& { return c.world.latent_dim; },
           [](MqaConfig* c) {
             if (c->world.raw_image_dim < c->world.latent_dim) {
               c->world.raw_image_dim = c->world.latent_dim * 2;
             }
             return Status::OK();
           }),
      Bind("world.raw_image_dim",
           [](auto& c) -> auto& { return c.world.raw_image_dim; }),
      Bind("world.seed", [](auto& c) -> auto& { return c.world.seed; }),
      Bind("world.words_per_concept",
           [](auto& c) -> auto& { return c.world.words_per_concept; }),
      Bind("world.adjectives_per_noun",
           [](auto& c) -> auto& { return c.world.adjectives_per_noun; }),
      Bind("world.extra_modalities",
           [](auto& c) -> auto& { return c.world.num_extra_modalities; }),
      Bind("world.object_noise",
           [](auto& c) -> auto& { return c.world.object_noise; }),
      Bind("world.adjective_dropout",
           [](auto& c) -> auto& { return c.world.text_adjective_dropout; }),
      NoiseKey("world.image_noise", 0),
      NoiseKey("world.text_noise", 1),
  };
  return keys;
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
    const std::vector<ConfigKey>& keys = ConfigKeys();
    const auto it = std::find_if(keys.begin(), keys.end(),
                                 [&key](const ConfigKey& k) {
                                   return key == k.name;
                                 });
    if (it == keys.end()) {
      return Status::InvalidArgument("unknown config key: " + key);
    }
    MQA_RETURN_NOT_OK(it->parse(value, &config));
  }
  return config;
}

Result<MqaConfig> ParseMqaConfigText(const std::string& text) {
  return ParseMqaConfig(Split(text, '\n'));
}

std::string MqaConfigToText(const MqaConfig& config) {
  std::string out;
  for (const ConfigKey& key : ConfigKeys()) {
    const std::string value = key.write(config);
    if (!value.empty()) out += std::string(key.name) + " = " + value + "\n";
  }
  return out;
}

}  // namespace mqa
