#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/config.h"
#include "core/query_executor.h"
#include "storage/object.h"
#include "storage/world.h"

namespace perfbench {

/// The three traffic mixes (see NOTES.md for why each exists).
enum class Workload { kDialogue, kMultimodal, kChurn };

mqa::Result<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload workload);

/// Closed-loop shape of the Server workloads. One worker: with two, the
/// serialized search batcher hands every search between the workers, and
/// identical runs on a 4-vCPU VM split into a 7k and a 10k turns/s mode
/// (see NOTES.md).
inline constexpr size_t kWorkers = 1;
inline constexpr size_t kSessions = 16;

/// The default MqaConfig plus the workload's stated deviations.
mqa::MqaConfig ConfigFor(Workload workload);

/// The paper's two-round script: a text query (round 1), a click on the
/// result at `select_rank`, then a modification (round 2). Round 2's
/// selected object is only known once round 1 has answered.
struct Dialogue {
  mqa::UserQuery first;
  size_t select_rank = 0;
  mqa::UserQuery second;
};

/// One session's dialogues, in order.
using Script = std::vector<Dialogue>;

/// `sessions` scripts of `dialogues` dialogues each, drawn from `seed`.
/// Each session's dialogues draw from their own stream, so they do not
/// depend on how turns interleave. With
/// `multimodal`, round 1 carries an uploaded image (a fresh rendering of a
/// seeded object of the concept) and every turn of a session carries the
/// same skewed weight override: one modality weighted 4x the rest, each
/// modality heavy in an equal share of the sessions.
std::vector<Script> MakeScripts(const mqa::World& world, uint64_t seed,
                                size_t sessions, size_t dialogues,
                                bool multimodal, size_t k);

enum class OpKind { kRead, kInsert, kDelete };

/// One churn operation. Reads are a whole dialogue; inserts carry a fresh
/// object; deletes carry a seeded draw that picks a live id at run time
/// (ids move under compaction, so they cannot be fixed in advance).
struct ChurnOp {
  OpKind kind = OpKind::kRead;
  Dialogue read;
  mqa::Object object;
  uint64_t pick = 0;
};

/// Share of each kind in a churn stream: exact counts, shuffled by `seed`,
/// so every seed crosses the compaction trigger about equally often.
inline constexpr double kReadShare = 0.70;
inline constexpr double kInsertShare = 0.15;

std::vector<ChurnOp> MakeChurnOps(const mqa::World& world, uint64_t seed,
                                  size_t count, size_t k);

/// The live id a delete draw selects: `pick` modulo the id space, then the
/// next id that is not tombstoned.
uint64_t PickLiveId(const mqa::KnowledgeBase& kb, uint64_t pick);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
