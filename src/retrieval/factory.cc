#include "retrieval/factory.h"

#include "retrieval/je.h"
#include "retrieval/mr.h"
#include "retrieval/must.h"

namespace mqa {

Result<std::unique_ptr<RetrievalFramework>> CreateRetrievalFramework(
    const std::string& name, std::shared_ptr<const VectorStore> corpus,
    std::vector<float> weights, const IndexConfig& index_config,
    BuildReport* report) {
  if (name == "must") {
    MQA_ASSIGN_OR_RETURN(
        std::unique_ptr<MustFramework> fw,
        MustFramework::Create(std::move(corpus), std::move(weights),
                              index_config, report));
    return std::unique_ptr<RetrievalFramework>(std::move(fw));
  }
  if (name == "mr") {
    MQA_ASSIGN_OR_RETURN(std::unique_ptr<MrFramework> fw,
                         MrFramework::Create(std::move(corpus),
                                             std::move(weights),
                                             index_config));
    if (report != nullptr) {
      *report = BuildReport{};
      report->algorithm = index_config.algorithm + " (per modality)";
    }
    return std::unique_ptr<RetrievalFramework>(std::move(fw));
  }
  if (name == "je") {
    MQA_ASSIGN_OR_RETURN(std::unique_ptr<JeFramework> fw,
                         JeFramework::Create(std::move(corpus),
                                             index_config));
    if (report != nullptr) {
      *report = BuildReport{};
      report->algorithm = index_config.algorithm + " (joint)";
    }
    return std::unique_ptr<RetrievalFramework>(std::move(fw));
  }
  return Status::InvalidArgument("unknown retrieval framework: " + name);
}

std::vector<std::string> RetrievalFrameworkNames() {
  return {"must", "mr", "je"};
}

}  // namespace mqa
