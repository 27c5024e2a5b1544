#ifndef MQA_GRAPH_INDEX_FACTORY_H_
#define MQA_GRAPH_INDEX_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "diskindex/disk_index.h"
#include "graph/hnsw.h"
#include "graph/pipeline.h"
#include "graph/search.h"

namespace mqa {

/// Unified index configuration — what the frontend's "index" panel edits.
/// `algorithm` selects between the flat pipeline algorithms ("kgraph",
/// "nsg", "vamana", "mqa-hybrid"), "hnsw", "bruteforce", and "starling"
/// (a disk-resident index: an mqa-hybrid graph packed into blocks).
struct IndexConfig {
  std::string algorithm = "mqa-hybrid";
  GraphBuildConfig graph;  ///< parameters of the flat pipeline algorithms
  HnswConfig hnsw;         ///< parameters when algorithm == "hnsw"
  DiskIndexConfig disk;    ///< parameters when algorithm == "starling"
};

/// Builds any supported index. The distance computer is consumed; `store`
/// must outlive the index. `report` (optional) receives build statistics
/// (for HNSW/bruteforce only total time and memory are filled).
Result<std::unique_ptr<VectorIndex>> CreateIndex(
    const IndexConfig& config, const VectorStore* store,
    std::unique_ptr<DistanceComputer> dist, BuildReport* report = nullptr);

/// All algorithm names accepted by CreateIndex.
std::vector<std::string> AllIndexAlgorithms();

}  // namespace mqa

#endif  // MQA_GRAPH_INDEX_FACTORY_H_
