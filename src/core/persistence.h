#ifndef MQA_CORE_PERSISTENCE_H_
#define MQA_CORE_PERSISTENCE_H_

#include <memory>
#include <string>

#include "core/config_parser.h"
#include "core/coordinator.h"

namespace mqa {

/// Persists a built system to a directory so it can be reopened without
/// re-encoding the corpus or rebuilding the index:
///
///   <dir>/kb.bin       knowledge base (objects + payloads)
///   <dir>/store.bin    encoded multi-vector store
///   <dir>/index.bin    the navigation graph (flat graph indexes only)
///   <dir>/config.txt   the MqaConfig in config-parser syntax
///   <dir>/weights.txt  learned modality weights
///
/// Only the MUST framework over a flat graph index ("kgraph", "nsg",
/// "vamana", "mqa-hybrid") round-trips today; other index kinds rebuild on
/// load (their build is either cheap, like bruteforce, or fast, like
/// hnsw). The directory is created if missing, and every file is written
/// atomically (temp file + fsync + rename): a crash mid-save leaves the
/// previous snapshot intact, never a half-written one.
Status SaveSystemState(const Coordinator& coordinator,
                       const std::string& dir);

/// Reopens a system saved with SaveSystemState. The world model is
/// regenerated deterministically from the saved config; knowledge base,
/// encoded store, weights — and the index when available — are loaded
/// from disk.
Result<std::unique_ptr<Coordinator>> LoadSystemState(const std::string& dir);

/// LoadSystemState with a caller-supplied config instead of the saved
/// config.txt. The durable system uses this to reopen snapshots under the
/// live configuration — preserving non-serializable settings (clocks,
/// resilience options) that the text round-trip would drop.
Result<std::unique_ptr<Coordinator>> LoadSystemStateWithConfig(
    const MqaConfig& config, const std::string& dir);

}  // namespace mqa

#endif  // MQA_CORE_PERSISTENCE_H_
