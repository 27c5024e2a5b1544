#include "core/persistence.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/string_util.h"
#include "core/config_parser.h"
#include "retrieval/must.h"
#include "storage/durable_file.h"

namespace mqa {

namespace {

std::string PathJoin(const std::string& dir, const char* file) {
  if (!dir.empty() && dir.back() == '/') return dir + file;
  return dir + "/" + file;
}

}  // namespace

Status SaveSystemState(const Coordinator& coordinator,
                       const std::string& dir) {
  if (!coordinator.config().enable_knowledge_base) {
    return Status::FailedPrecondition(
        "nothing to persist: the knowledge base is disabled");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create snapshot directory " + dir + ": " +
                           ec.message());
  }
  MQA_RETURN_NOT_OK(WriteFileAtomic(PathJoin(dir, "config.txt"),
                                    MqaConfigToText(coordinator.config())));
  MQA_RETURN_NOT_OK(
      WriteFileAtomic(PathJoin(dir, "kb.bin"), [&](std::ostream& out) {
        return coordinator.kb().Save(out);
      }));
  MQA_RETURN_NOT_OK(
      WriteFileAtomic(PathJoin(dir, "store.bin"), [&](std::ostream& out) {
        return coordinator.store().Save(out);
      }));
  MQA_RETURN_NOT_OK(
      WriteFileAtomic(PathJoin(dir, "weights.txt"), [&](std::ostream& out) {
        for (float w : coordinator.weights()) {
          // %.9g round-trips any float exactly through text.
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.9g", w);
          out << buf << "\n";
        }
        return Status::OK();
      }));
  // The index round-trips only for MUST over a flat graph.
  const Coordinator& c = coordinator;
  if (auto* must = dynamic_cast<const MustFramework*>(c.framework_const())) {
    if (const auto* graph = must->flat_graph_index()) {
      MQA_RETURN_NOT_OK(
          WriteFileAtomic(PathJoin(dir, "index.bin"), [&](std::ostream& out) {
            return graph->Save(out);
          }));
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<Coordinator>> LoadSystemState(
    const std::string& dir) {
  MqaConfig config;
  {
    std::ifstream in(PathJoin(dir, "config.txt"));
    if (!in) return Status::IoError("cannot read " + dir + "/config.txt");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    MQA_ASSIGN_OR_RETURN(config, ParseMqaConfigText(text));
  }
  return LoadSystemStateWithConfig(config, dir);
}

Result<std::unique_ptr<Coordinator>> LoadSystemStateWithConfig(
    const MqaConfig& config, const std::string& dir) {
  std::ifstream kb_in(PathJoin(dir, "kb.bin"), std::ios::binary);
  if (!kb_in) return Status::IoError("cannot read " + dir + "/kb.bin");
  MQA_ASSIGN_OR_RETURN(KnowledgeBase kb, KnowledgeBase::Load(kb_in));

  std::ifstream store_in(PathJoin(dir, "store.bin"), std::ios::binary);
  if (!store_in) return Status::IoError("cannot read " + dir + "/store.bin");
  MQA_ASSIGN_OR_RETURN(VectorStore store, VectorStore::Load(store_in));

  std::vector<float> weights;
  {
    std::ifstream in(PathJoin(dir, "weights.txt"));
    if (!in) return Status::IoError("cannot read " + dir + "/weights.txt");
    std::string line;
    while (std::getline(in, line)) {
      if (!Trim(line).empty()) weights.push_back(std::stof(line));
    }
  }
  if (weights.size() != store.schema().num_modalities()) {
    return Status::IoError("weights file does not match the store schema");
  }
  if (kb.size() != store.size()) {
    return Status::IoError("knowledge base and store sizes differ");
  }

  std::ifstream index_in(PathJoin(dir, "index.bin"), std::ios::binary);
  return Coordinator::CreateFromState(config, std::move(kb),
                                      std::move(store), std::move(weights),
                                      index_in ? &index_in : nullptr);
}

}  // namespace mqa
