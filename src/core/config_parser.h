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
/// with '#' are ignored.
///
/// Recognized keys:
///   enable_knowledge_base   bool   ("true"/"false"/"1"/"0")
///   corpus_size             uint
///   kb_name                 string
///   encoder                 string ("sim-clip" | "sim-resnet-lstm" | ...)
///   embedding_dim           uint
///   learn_weights           bool
///   training_triplets       uint
///   index.algorithm         string ("mqa-hybrid" | "hnsw" | "starling" ...)
///   index.max_degree        uint   (1 .. 2^32-1)
///   index.build_beam        uint   (1 .. 2^32-1)
///   index.alpha             float  (finite, >= 1)
///   framework               string ("must" | "mr" | "je")
///   search.k                uint
///   search.beam_width       uint
///   llm                     string ("sim-llm" | "none")
///   temperature             float
///   seed                    uint
///   world.num_concepts      uint
///   world.latent_dim        uint
///   world.raw_image_dim     uint
///   world.seed              uint   (overrides the top-level seed)
///   world.words_per_concept uint
///   world.adjectives_per_noun uint
///   world.extra_modalities  uint
///   world.object_noise      float
///   world.adjective_dropout float
///   world.image_noise       float
///   world.text_noise        float
///   serving.num_workers     uint
///   serving.queue_capacity  uint
///   serving.default_deadline_ms float
///   serving.breaker_threshold uint
///   serving.breaker_open_ms float
/// plus the `resilience.*` and `observability.*` knob groups (see
/// config_parser.cc for the full key-by-key mapping).
Result<MqaConfig> ParseMqaConfig(const std::vector<std::string>& lines);

/// Convenience: splits `text` on newlines and parses.
Result<MqaConfig> ParseMqaConfigText(const std::string& text);

}  // namespace mqa

#endif  // MQA_CORE_CONFIG_PARSER_H_
