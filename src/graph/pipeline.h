#ifndef MQA_GRAPH_PIPELINE_H_
#define MQA_GRAPH_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/topk.h"
#include "dag/dag.h"
#include "graph/search.h"
#include "vector/vector_store.h"

namespace mqa {

/// Parameters of the unified five-stage navigation-graph construction
/// pipeline. The `algorithm` selects how the stages are instantiated:
///
///   "kgraph"      init: NN-Descent kNN lists; no refinement
///   "nsg"         init: NN-Descent; search-based refine with the MRNG rule
///                 (alpha = 1); connectivity repair from the medoid
///   "vamana"      init: random regular graph; two refine passes
///                 (alpha 1, then `alpha`); DiskANN's RobustPrune
///   "mqa-hybrid"  the paper's composed algorithm: NN-Descent init +
///                 RobustPrune refinement + connectivity repair
struct GraphBuildConfig {
  std::string algorithm = "mqa-hybrid";
  uint32_t max_degree = 32;       ///< R: out-degree bound after selection
  uint32_t build_beam = 64;       ///< L: beam width of build-time searches
  float alpha = 1.2f;             ///< RobustPrune diversification factor
  uint32_t nn_descent_k = 32;     ///< kNN-list size of the init stage
  uint32_t nn_descent_iters = 8;  ///< max NN-Descent rounds
  uint64_t seed = 42;
  bool run_stages_on_dag = true;  ///< execute stages through the DAG engine
};

/// What the status-monitoring panel shows about a finished build.
struct BuildReport {
  std::string algorithm;
  double total_seconds = 0.0;
  std::vector<dag::NodeReport> stages;  ///< per-stage names and timings
  double avg_degree = 0.0;
  uint32_t max_degree = 0;
  uint32_t medoid = 0;
  bool connected = false;
  /// Pairs NN-Descent's local joins scored; 0 when the algorithm has no
  /// NN-Descent stage. Deterministic for a given store and config.
  uint64_t nn_descent_evals = 0;
};

/// DiskANN's RobustPrune neighbor selection. Given a candidate pool for
/// `node` (any order, duplicates/self allowed; of an id offered more than
/// once, the first entry in NeighborLess order counts), returns a diverse
/// neighbor set of at most `max_degree`: a candidate is occluded when some
/// already selected neighbor p satisfies alpha * d(p, c) <= d(node, c).
/// With alpha = 1 this is the MRNG rule used by NSG. Each selection scores
/// the candidates still live in one DistancesBetween call.
std::vector<uint32_t> RobustPrune(uint32_t node,
                                  std::vector<Neighbor> candidates,
                                  float alpha, uint32_t max_degree,
                                  DistanceComputer* dist);

/// Runs the construction pipeline and returns a searchable index. The
/// distance computer is consumed (the index owns it afterwards). `store`
/// must outlive the index. `report` (optional) receives stage timings.
/// InvalidArgument unless alpha is finite and >= 1 and max_degree and
/// build_beam are >= 1.
///
/// NN-Descent initialization and refinement run on DefaultThreadPool(), so
/// the computer's Distance and DistanceBetween are called from several
/// threads at once, and this must not be called from a task running on
/// that pool (ThreadPool::ParallelFor would wait on the slot it holds). The
/// result is a function of the config and the store alone: the same for
/// every pool size, and for builds racing each other.
Result<std::unique_ptr<GraphIndex>> BuildGraphIndex(
    const GraphBuildConfig& config, const VectorStore* store,
    std::unique_ptr<DistanceComputer> dist, BuildReport* report = nullptr);

/// Algorithms accepted by GraphBuildConfig::algorithm.
std::vector<std::string> GraphAlgorithms();

/// Incremental ingestion: inserts row `new_id` of the store into an
/// existing index, DiskANN/Vamana style — search for the new vector,
/// RobustPrune the evaluated pool into its neighbor list, then add pruned
/// backlinks. `new_id` must be exactly index->size() (dense ids) and must
/// already be present in the store the index's distance computer reads.
/// The config is validated as by BuildGraphIndex.
Status InsertIntoGraphIndex(GraphIndex* index, const VectorStore* store,
                            uint32_t new_id, const GraphBuildConfig& config);

/// Physically evicts tombstoned nodes from a navigation graph. `remap` maps
/// old ids to new dense ids (kTombstonedId = deleted, as produced by
/// TombstoneSet::BuildRemap). For every live node, edges into a deleted
/// node are spliced through it transitively — the dead node's own (live)
/// neighbors become direct edges, chains of dead nodes are followed — so
/// paths that routed through evicted vertices survive. Per-node degree is
/// capped at `max_degree` (splicing can only widen candidate sets; order
/// keeps original neighbors first). Pure adjacency surgery: no distances
/// are computed, which keeps compaction cheap relative to a rebuild.
Result<AdjacencyGraph> CompactAdjacency(const AdjacencyGraph& graph,
                                        const std::vector<uint32_t>& remap,
                                        uint32_t live_count,
                                        uint32_t max_degree);

}  // namespace mqa

#endif  // MQA_GRAPH_PIPELINE_H_
