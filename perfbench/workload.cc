#include "workload.h"

#include <algorithm>
#include <utility>

#include "common/random.h"

namespace perfbench {

namespace {

/// Independent stream per (seed, lane): lanes are sessions, or the churn
/// stream's purposes, so adding one never shifts another.
mqa::Rng StreamRng(uint64_t seed, uint64_t lane) {
  return mqa::Rng(seed * 0x9E3779B97F4A7C15ULL + lane * 0xD1B54A32D192ED03ULL +
                  1);
}

/// With `upload`, round 1 also carries a fresh rendering of an object of
/// the concept, as a user describing their own photo.
Dialogue MakeDialogue(const mqa::World& world, mqa::Rng* rng, size_t k,
                      bool upload) {
  const auto concept_id =
      static_cast<uint32_t>(rng->NextUint64(world.num_concepts()));
  Dialogue d;
  d.first.text = world.MakeTextQuery(concept_id, rng).text;
  if (upload) {
    d.first.uploaded_image = world.MakeObject(concept_id, rng).modalities[0];
  }
  d.select_rank = static_cast<size_t>(rng->NextUint64(k));
  d.second.text = world.MakeModification(concept_id, rng).text;
  return d;
}

}  // namespace

mqa::Result<Workload> ParseWorkload(const std::string& name) {
  if (name == "dialogue") return Workload::kDialogue;
  if (name == "multimodal") return Workload::kMultimodal;
  if (name == "churn") return Workload::kChurn;
  return mqa::Status::InvalidArgument("unknown workload: " + name);
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kDialogue:
      return "dialogue";
    case Workload::kMultimodal:
      return "multimodal";
    case Workload::kChurn:
      return "churn";
  }
  return "?";
}

mqa::MqaConfig ConfigFor(Workload workload) {
  mqa::MqaConfig config;
  config.serving.num_workers = kWorkers;
  if (workload == Workload::kMultimodal) {
    config.world.num_extra_modalities = 2;  // image + text + 2 = MUST-E4
  }
  return config;
}

std::vector<Script> MakeScripts(const mqa::World& world, uint64_t seed,
                                size_t sessions, size_t dialogues,
                                bool multimodal, size_t k) {
  // Heavy modalities are dealt evenly over the sessions, in seeded order,
  // so every seed runs the same mix of skews.
  const size_t modalities = world.num_modalities();
  std::vector<size_t> heavy(sessions);
  for (size_t s = 0; s < sessions; ++s) heavy[s] = s % modalities;
  mqa::Rng deal = StreamRng(seed, sessions);
  for (size_t i = sessions; i > 1; --i) {
    std::swap(heavy[i - 1], heavy[deal.NextUint64(i)]);
  }
  std::vector<Script> scripts(sessions);
  for (size_t s = 0; s < sessions; ++s) {
    mqa::Rng rng = StreamRng(seed, s);
    std::vector<float> weights;
    if (multimodal) {
      weights.assign(modalities, 1.0f);
      weights[heavy[s]] = 4.0f;
    }
    scripts[s].reserve(dialogues);
    for (size_t i = 0; i < dialogues; ++i) {
      Dialogue d = MakeDialogue(world, &rng, k, multimodal);
      d.first.weight_override = weights;
      d.second.weight_override = weights;
      scripts[s].push_back(std::move(d));
    }
  }
  return scripts;
}

std::vector<ChurnOp> MakeChurnOps(const mqa::World& world, uint64_t seed,
                                  size_t count, size_t k) {
  const auto reads = static_cast<size_t>(count * kReadShare);
  const auto inserts = static_cast<size_t>(count * kInsertShare);
  std::vector<OpKind> kinds(count, OpKind::kDelete);
  std::fill_n(kinds.begin(), reads, OpKind::kRead);
  std::fill_n(kinds.begin() + reads, inserts, OpKind::kInsert);
  mqa::Rng order = StreamRng(seed, 0);
  for (size_t i = count; i > 1; --i) {
    std::swap(kinds[i - 1], kinds[order.NextUint64(i)]);
  }

  mqa::Rng rng = StreamRng(seed, 1);
  std::vector<ChurnOp> ops(count);
  for (size_t i = 0; i < count; ++i) {
    ChurnOp& op = ops[i];
    op.kind = kinds[i];
    switch (op.kind) {
      case OpKind::kRead:
        op.read = MakeDialogue(world, &rng, k, /*upload=*/false);
        break;
      case OpKind::kInsert:
        op.object = world.MakeObject(
            static_cast<uint32_t>(rng.NextUint64(world.num_concepts())), &rng);
        break;
      case OpKind::kDelete:
        op.pick = rng.Next();
        break;
    }
  }
  return ops;
}

uint64_t PickLiveId(const mqa::KnowledgeBase& kb, uint64_t pick) {
  uint64_t id = pick % kb.size();
  while (kb.IsDeleted(id)) id = (id + 1) % kb.size();
  return id;
}

}  // namespace perfbench
