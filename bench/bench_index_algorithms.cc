// Experiment Pipeline-E5: the unified five-stage construction pipeline
// instantiating different navigation-graph algorithms (KGraph, NSG,
// Vamana, the composed "mqa-hybrid", HNSW) — build time, memory, stage
// breakdown, and the recall/QPS operating points of each.
//
// Paper claim: "a general pipeline for constructing fine-grained
// navigation graphs on CGraph ... allowing any current navigation graph to
// be decomposed and smoothly integrated into MQA. Furthermore, we
// incorporate components from several state-of-the-art algorithms ...
// resulting in a novel indexing algorithm."

#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/experiment.h"
#include "graph/index_factory.h"

namespace mqa {
namespace {

int Run(const bench::BenchArgs& args) {
  const size_t n = bench::Scaled(20000, args.scale, 2000);
  bench::Banner("Pipeline-E5: index algorithms in the unified pipeline (N = " +
                std::to_string(n) + ", weighted multi-vector space)");

  WorldConfig wc;
  wc.num_concepts = 40;
  wc.latent_dim = 32;
  wc.raw_image_dim = 64;
  wc.seed = 29;
  auto corpus = MakeExperimentCorpus(wc, n);
  if (!corpus.ok()) return 1;
  const VectorStore& store = *corpus->represented.store;

  // Query bank + exact ground truth under the learned weighted distance.
  // 1000 queries keep the recall estimate's spread well under the CI
  // gate's margin (the calibration is in bench/baselines.json).
  const size_t kQueries = 1000;
  std::vector<Vector> queries;
  std::vector<std::vector<uint32_t>> exact(kQueries);
  {
    auto wd = WeightedMultiDistance::Create(store.schema(),
                                            corpus->represented.weights);
    if (!wd.ok()) return 1;
    Rng rng(31);
    for (size_t i = 0; i < kQueries; ++i) {
      const uint32_t c =
          static_cast<uint32_t>(i % corpus->world->num_concepts());
      auto q = EncodeTextQuery(
          *corpus, corpus->world->MakeTextQuery(c, &rng).text);
      if (!q.ok()) return 1;
      auto flat = FlattenMultiVector(store.schema(), q->modalities);
      if (!flat.ok()) return 1;
      queries.push_back(std::move(flat).Value());
    }
    DefaultThreadPool().ParallelFor(kQueries, [&](size_t i) {
      TopK topk(10);
      for (uint32_t id = 0; id < store.size(); ++id) {
        topk.Push(wd->Exact(queries[i].data(), store.data(id)), id);
      }
      for (const Neighbor& nb : topk.TakeSorted()) exact[i].push_back(nb.id);
    });
  }

  const size_t kBeams[] = {32, 64, 96};
  bench::Table table({"algorithm", "build s", "index MB", "avg degree",
                      "connected", "recall@10 L32", "recall@10 L64",
                      "recall@10 L96", "QPS L96", "stage breakdown"});
  bench::JsonReporter json("bench_index_algorithms");
  json.AddConfig("n", static_cast<double>(n));
  json.AddConfig("queries", static_cast<double>(kQueries));
  json.AddConfig("scale", args.scale);
  json.AddConfig("threads",
                 static_cast<double>(DefaultThreadPool().num_threads()));

  for (const std::string& algo : AllIndexAlgorithms()) {
    IndexConfig config;
    config.algorithm = algo;
    config.graph.max_degree = 24;
    config.graph.build_beam = 64;
    config.hnsw.m = 12;
    auto wd = WeightedMultiDistance::Create(store.schema(),
                                            corpus->represented.weights);
    if (!wd.ok()) return 1;
    auto dist = std::make_unique<MultiVectorDistanceComputer>(
        &store, std::move(wd).Value());
    BuildReport report;
    Timer build_timer;
    auto index = CreateIndex(config, &store, std::move(dist), &report);
    if (!index.ok()) {
      std::fprintf(stderr, "%s: %s\n", algo.c_str(),
                   index.status().ToString().c_str());
      return 1;
    }
    const double build_s = build_timer.ElapsedSeconds();
    json.AddMetric(algo + "/build_s", build_s);

    std::vector<std::string> row = {
        algo, FormatDouble(build_s, 2),
        FormatDouble((*index)->MemoryBytes() / 1048576.0, 2),
        FormatDouble(report.avg_degree, 1), report.connected ? "yes" : "-"};
    double recall = 0;
    double qps = 0;
    for (size_t beam : kBeams) {
      SearchParams params;
      params.k = 10;
      params.beam_width = beam;
      double hits = 0;
      Timer timer;
      for (size_t i = 0; i < kQueries; ++i) {
        auto r = (*index)->Search(queries[i].data(), params, nullptr);
        if (!r.ok()) return 1;
        hits += GroundTruthHitRate(*r, exact[i]);
      }
      qps = kQueries / timer.ElapsedSeconds();
      recall = hits / kQueries;
      row.push_back(FormatDouble(recall, 3));
      json.AddMetric(algo + "/beam" + std::to_string(beam) + "/recall_at_10",
                     recall);
    }
    // The widest beam is the headline operating point (and the CI gate).
    json.AddMetric(algo + "/recall_at_10", recall);
    json.AddMetric(algo + "/qps", qps);
    row.push_back(FormatDouble(qps, 0));

    // The build's work and where its time went: NN-Descent's join pairs
    // (deterministic at a fixed seed and scale, so CI gates them exactly)
    // and each pipeline stage's seconds.
    if (report.nn_descent_evals > 0) {
      json.AddMetric(algo + "/nn_descent_evals",
                     static_cast<double>(report.nn_descent_evals));
    }
    std::string stages;
    for (const auto& s : report.stages) {
      json.AddMetric(algo + "/" + s.name + "_s", s.elapsed_ms / 1000.0);
      if (!stages.empty()) stages += ", ";
      stages += s.name.substr(0, 4) + "=" +
                FormatDouble(s.elapsed_ms / 1000.0, 1) + "s";
    }
    if (stages.empty()) stages = "-";
    row.push_back(stages);
    table.AddRow(std::move(row));
  }
  table.Print();
  if (!args.json_path.empty() && !json.WriteToFile(args.json_path)) return 1;
  std::printf(
      "\nExpected shape: every refined graph (nsg, vamana, mqa-hybrid,\n"
      "hnsw) reaches ~0.93+ recall at several times the QPS of bruteforce\n"
      "(the gap widens with N: graph search cost grows ~log N, scans grow\n"
      "linearly); kgraph (no refinement, random restarts) trails in\n"
      "recall; build cost is dominated by the refinement stage.\n");
  return 0;
}

}  // namespace
}  // namespace mqa

int main(int argc, char** argv) {
  return mqa::Run(mqa::bench::ParseBenchArgs(&argc, argv));
}
