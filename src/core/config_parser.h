#ifndef MQA_CORE_CONFIG_PARSER_H_
#define MQA_CORE_CONFIG_PARSER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/config.h"

namespace mqa {

/// Parses `key = value` lines into an MqaConfig — the textual equivalent
/// of the frontend's configuration panel. Unknown keys and malformed
/// values are errors (fail fast on typos). Blank lines and lines starting
/// with '#' are ignored. Integers must fit their field.
///
/// Recognized keys (one table in config_parser.cc drives both the parser
/// and MqaConfigToText):
///   enable_knowledge_base   bool   ("true"/"false"/"1"/"0"/"yes"/"no"/...)
///   corpus_size             uint
///   kb_name                 string
///   encoder                 string ("sim-clip" | "sim-resnet-lstm" | ...)
///   embedding_dim           uint
///   learn_weights           bool
///   training_triplets       uint
///   index.algorithm         string ("mqa-hybrid" | "hnsw" | "starling" ...)
///   index.max_degree        uint   (1 .. 2^32-1; hnsw m = max(2, v / 2))
///   index.build_beam        uint   (1 .. 2^32-1; also hnsw ef_construction)
///   index.alpha             float  (finite, >= 1)
///   simd.level              string ("auto" | "scalar" | "avx2" | "avx512")
///   framework               string ("must" | "mr" | "je")
///   search.k                uint   (> 0)
///   search.beam_width       uint
///   rewrite_vague_queries   bool
///   llm                     string ("sim-llm" | "none")
///   temperature             float
///   resilience.enable       bool
///   resilience.llm_max_attempts     uint
///   resilience.llm_backoff_ms       float (initial backoff)
///   resilience.llm_deadline_ms      float (overall deadline, 0 = none)
///   resilience.breaker_threshold    uint
///   resilience.breaker_open_ms      float
///   resilience.encoder_max_attempts uint
///   resilience.io_error_budget      uint  (disk index page-read errors)
///   serving.num_workers     uint
///   serving.queue_capacity  uint
///   serving.default_deadline_ms float
///   serving.breaker_threshold uint
///   serving.breaker_open_ms float
///   shard.enable            bool
///   shard.num_shards        uint
///   shard.quorum            uint
///   shard.partition         string ("round-robin" | "hash")
///   shard.deadline_fraction float
///   shard.fanout_threads    uint   (0 = min(num_shards, hardware))
///   shard.breaker_threshold uint
///   shard.breaker_open_ms   float
///   observability.trace_turns   bool
///   observability.explain_turns bool
///   observability.trace_build   bool
///   seed                    uint   (also sets world.seed)
///   world.num_concepts      uint
///   world.latent_dim        uint   (grows raw_image_dim to 2x if smaller)
///   world.raw_image_dim     uint
///   world.seed              uint   (overrides the top-level seed)
///   world.words_per_concept uint
///   world.adjectives_per_noun uint
///   world.extra_modalities  uint
///   world.object_noise      float
///   world.adjective_dropout float
///   world.image_noise       float
///   world.text_noise        float
Result<MqaConfig> ParseMqaConfig(const std::vector<std::string>& lines);

/// Convenience: splits `text` on newlines and parses.
Result<MqaConfig> ParseMqaConfigText(const std::string& text);

/// Writes every key above in parser syntax, floats as the shortest text
/// that parses back to the same value, so ParseMqaConfigText returns a
/// config with the same settings. Settings without a key (clocks,
/// learner and compaction options) keep their defaults on the way back.
std::string MqaConfigToText(const MqaConfig& config);

}  // namespace mqa

#endif  // MQA_CORE_CONFIG_PARSER_H_
