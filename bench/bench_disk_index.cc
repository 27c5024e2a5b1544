// Experiment Starling-E6: the disk-resident graph index. Block layout
// (BFS packing vs id order), page-cache size and the in-memory pivot
// sample determine the number of 4KB page reads per query — the quantity
// that dominates latency on SSDs.
//
// Paper claim (via Starling [9]): an I/O-efficient disk-resident graph
// index with a block-level layout reduces page reads per query, enabling
// scalability past memory.

#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/experiment.h"
#include "diskindex/disk_index.h"
#include "graph/pipeline.h"

namespace mqa {
namespace {

int Run(const bench::BenchArgs& args) {
  const size_t n = bench::Scaled(20000, args.scale, 2000);
  bench::Banner("Starling-E6: disk-resident index I/O (N = " +
                std::to_string(n) + ", page = 4KB, k = 10, beam = 64)");

  WorldConfig wc;
  wc.num_concepts = 40;
  wc.latent_dim = 32;
  wc.raw_image_dim = 64;
  wc.seed = 37;
  auto corpus = MakeExperimentCorpus(wc, n);
  if (!corpus.ok()) return 1;
  const VectorStore& store = *corpus->represented.store;

  bench::JsonReporter report("bench_disk_index");
  report.AddConfig("n", static_cast<double>(n));
  report.AddConfig("k", 10.0);
  report.AddConfig("beam", 64.0);
  report.AddConfig("scale", args.scale);

  // Build the in-memory source graph once.
  auto wd = WeightedMultiDistance::Create(store.schema(),
                                          corpus->represented.weights);
  if (!wd.ok()) return 1;
  GraphBuildConfig graph_config;
  graph_config.algorithm = "mqa-hybrid";
  graph_config.max_degree = 24;
  auto mem_index = BuildGraphIndex(
      graph_config, &store,
      std::make_unique<MultiVectorDistanceComputer>(&store, *wd));
  if (!mem_index.ok()) return 1;

  const size_t kQueries = bench::Scaled(100, args.scale, 20);
  std::vector<Vector> queries;
  Rng rng(41);
  for (size_t i = 0; i < kQueries; ++i) {
    const uint32_t c =
        static_cast<uint32_t>(i % corpus->world->num_concepts());
    auto q = EncodeTextQuery(*corpus,
                             corpus->world->MakeTextQuery(c, &rng).text);
    if (!q.ok()) return 1;
    auto flat = FlattenMultiVector(store.schema(), q->modalities);
    if (!flat.ok()) return 1;
    queries.push_back(std::move(flat).Value());
  }

  bench::Table table({"layout", "cache pages", "mem pivots",
                      "page reads/query", "cache hits/query",
                      "modeled ms/query (100us reads)", "recall vs memory"});

  // Memory-index reference results.
  SearchParams params;
  params.k = 10;
  params.beam_width = 64;
  std::vector<std::vector<uint32_t>> mem_results(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    auto r = (*mem_index)->Search(queries[i].data(), params, nullptr);
    if (!r.ok()) return 1;
    for (const Neighbor& n : *r) mem_results[i].push_back(n.id);
  }

  struct Setting {
    const char* layout;
    size_t cache;
    uint32_t pivots;
  };
  const Setting settings[] = {
      {"id", 64, 0},    {"bfs", 64, 0},    {"bfs", 16, 0},
      {"bfs", 256, 0},  {"bfs", 1024, 0},  {"bfs", 64, 256},
      {"bfs", 64, 1024},
  };

  for (const Setting& s : settings) {
    DiskIndexConfig config;
    config.layout = s.layout;
    config.cache_pages = s.cache;
    config.memory_pivots = s.pivots;
    auto disk = DiskGraphIndex::Create(config, **mem_index, store, *wd);
    if (!disk.ok()) {
      std::fprintf(stderr, "disk: %s\n", disk.status().ToString().c_str());
      return 1;
    }
    double recall = 0;
    for (size_t i = 0; i < kQueries; ++i) {
      (*disk)->ClearCache();  // cold per query: worst case
      auto r = (*disk)->Search(queries[i].data(), params, nullptr);
      if (!r.ok()) return 1;
      recall += GroundTruthHitRate(*r, mem_results[i]);
    }
    const DiskIoStats& io = (*disk)->io_stats();
    const double reads = static_cast<double>(io.page_reads) / kQueries;
    table.AddRow({s.layout, std::to_string(s.cache),
                  std::to_string(s.pivots), FormatDouble(reads, 1),
                  FormatDouble(static_cast<double>(io.cache_hits) / kQueries,
                               1),
                  FormatDouble(DiskGraphIndex::ModeledLatencyMs(
                                   static_cast<uint64_t>(reads)),
                               2),
                  FormatDouble(recall / kQueries, 3)});
    const std::string prefix = std::string(s.layout) + "_c" +
                               std::to_string(s.cache) + "_p" +
                               std::to_string(s.pivots);
    report.AddMetric(prefix + "/page_reads_per_query", reads);
    report.AddMetric(prefix + "/cache_hits_per_query",
                     static_cast<double>(io.cache_hits) / kQueries);
    report.AddMetric(prefix + "/recall_vs_memory", recall / kQueries);
  }
  table.Print();
  if (!args.json_path.empty() && !report.WriteToFile(args.json_path)) {
    return 1;
  }
  std::printf(
      "\nExpected shape: the BFS block layout needs ~2-3x fewer page reads\n"
      "than id order (neighborhoods share pages), and bigger caches help\n"
      "further — the two Starling effects. The in-memory pivot sample\n"
      "(Starling's RAM navigation layer) seeds the traversal near the\n"
      "answer and cuts cold-cache reads further. Recall stays close to the\n"
      "in-memory index throughout.\n");
  return 0;
}

}  // namespace
}  // namespace mqa

int main(int argc, char** argv) {
  return mqa::Run(mqa::bench::ParseBenchArgs(&argc, argv));
}
