// Pluggable indexing walkthrough: build every navigation-graph algorithm
// through the unified five-stage pipeline over the same encoded corpus,
// inspect the stage reports, persist a graph to disk and reload it, and
// pack one index into the Starling-style disk-resident format.

#include <cstdio>
#include <sstream>

#include "core/experiment.h"
#include "diskindex/disk_index.h"
#include "graph/index_factory.h"

int main() {
  mqa::WorldConfig wc;
  wc.num_concepts = 24;
  wc.seed = 3;
  auto corpus_or = mqa::MakeExperimentCorpus(wc, 5000);
  if (!corpus_or.ok()) {
    std::fprintf(stderr, "%s\n", corpus_or.status().ToString().c_str());
    return 1;
  }
  const mqa::ExperimentCorpus& corpus = *corpus_or;
  const mqa::VectorStore& store = *corpus.represented.store;

  auto make_dist = [&]() {
    auto wd = mqa::WeightedMultiDistance::Create(
        store.schema(), corpus.represented.weights);
    return std::make_unique<mqa::MultiVectorDistanceComputer>(
        &store, std::move(wd).Value());
  };

  // 1) Every algorithm through one factory call.
  std::printf("=== building all index algorithms ===\n");
  for (const std::string& algo : mqa::AllIndexAlgorithms()) {
    mqa::IndexConfig config;
    config.algorithm = algo;
    config.graph.max_degree = 16;
    mqa::BuildReport report;
    auto index = mqa::CreateIndex(config, &store, make_dist(), &report);
    if (!index.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", algo.c_str(),
                   index.status().ToString().c_str());
      return 1;
    }
    std::printf("%-11s built in %.2fs, avg degree %.1f, stages:",
                algo.c_str(), report.total_seconds, report.avg_degree);
    for (const auto& stage : report.stages) {
      std::printf(" %s(%.0fms)", stage.name.c_str(), stage.elapsed_ms);
    }
    std::printf("\n");
  }

  // 2) Build one flat graph, save it, reload it, search both.
  std::printf("\n=== graph persistence ===\n");
  mqa::GraphBuildConfig graph_config;
  graph_config.algorithm = "mqa-hybrid";
  graph_config.max_degree = 16;
  auto built = mqa::BuildGraphIndex(graph_config, &store, make_dist());
  if (!built.ok()) return 1;
  std::stringstream blob;
  if (auto st = (*built)->graph().Save(blob); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("serialized graph: %zu bytes\n", blob.str().size());
  auto reloaded_graph = mqa::AdjacencyGraph::Load(blob);
  if (!reloaded_graph.ok()) return 1;
  mqa::GraphIndex reloaded("reloaded", std::move(reloaded_graph).Value(),
                           make_dist(), (*built)->entry_points());

  const mqa::Vector query = store.Row(42);
  mqa::SearchParams params;
  params.k = 5;
  auto original_hits = (*built)->Search(query.data(), params, nullptr);
  auto reloaded_hits = reloaded.Search(query.data(), params, nullptr);
  if (!original_hits.ok() || !reloaded_hits.ok()) return 1;
  std::printf("top hit before/after reload: #%u / #%u (identical: %s)\n",
              (*original_hits)[0].id, (*reloaded_hits)[0].id,
              *original_hits == *reloaded_hits ? "yes" : "no");

  // 3) Pack the same graph into the disk-resident format.
  std::printf("\n=== disk-resident packing ===\n");
  mqa::DiskIndexConfig disk_config;
  auto wd = mqa::WeightedMultiDistance::Create(store.schema(),
                                               corpus.represented.weights);
  auto disk = mqa::DiskGraphIndex::Create(disk_config, **built, store,
                                          std::move(wd).Value());
  if (!disk.ok()) return 1;
  auto disk_hits = (*disk)->Search(query.data(), params, nullptr);
  if (!disk_hits.ok()) return 1;
  std::printf("disk index: %zu pages, %zu nodes/page, top hit #%u, "
              "%llu page reads for this query\n",
              (*disk)->num_pages(), (*disk)->nodes_per_page(),
              (*disk_hits)[0].id,
              static_cast<unsigned long long>(
                  (*disk)->io_stats().page_reads));
  return 0;
}
