// Shard-E11 (fault-isolated sharded retrieval): cost and payoff of the
// fan-out layer. Scenario "clean" compares the sharded merge against the
// single-index framework on QPS and recall (plus an exact-merge parity
// check on brute-force shards, which must reproduce the unsharded top-k
// bit for bit). Scenario "faulty" arms per-shard fault points — error
// faults on half the shards, latency spikes on the other half — and
// reports what the robustness machinery did about them: hedge rate,
// hedge-win rate, degraded fraction (fan-outs missing at least one shard)
// and the fraction of queries that still completed.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/fault.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/experiment.h"
#include "retrieval/factory.h"
#include "shard/sharded_retrieval.h"

namespace mqa {
namespace {

struct ScenarioResult {
  double qps = 0;
  double recall = 0;        ///< mean hit rate vs the brute-force oracle
  double completed = 0;     ///< fraction of queries that returned ok
  double degraded = 0;      ///< fraction of ok fan-outs missing a shard
  double hedge_rate = 0;    ///< hedged shard attempts / shard attempts
  double hedge_wins = 0;    ///< hedge attempts that beat their primary
  size_t breaker_skips = 0;
  size_t errors = 0;
};

/// Runs every query through `framework`, scoring against `truth` (one id
/// list per query). Shard accounting is read from the fan-out report when
/// `sharded` is non-null.
ScenarioResult RunScenario(RetrievalFramework* framework,
                           ShardedRetrieval* sharded,
                           const std::vector<RetrievalQuery>& queries,
                           const std::vector<std::vector<uint32_t>>& truth,
                           const SearchParams& params) {
  ScenarioResult out;
  size_t ok = 0;
  size_t attempts = 0, hedged = 0, hedge_won = 0, degraded = 0;
  double recall_sum = 0;
  Timer timer;
  for (size_t q = 0; q < queries.size(); ++q) {
    FanoutReport report;
    auto result = sharded != nullptr
                      ? sharded->Retrieve(queries[q], params, &report)
                      : framework->Retrieve(queries[q], params);
    if (sharded != nullptr) {
      for (const ShardOutcome& o : report.shards) {
        ++attempts;
        if (o.hedged) ++hedged;
        if (o.hedge_won) ++hedge_won;
        if (o.kind == ShardOutcomeKind::kBreakerOpen) ++out.breaker_skips;
        if (o.kind == ShardOutcomeKind::kError) ++out.errors;
      }
      if (result.ok() && report.ok_count < report.shards.size()) ++degraded;
    }
    if (!result.ok()) continue;
    ++ok;
    recall_sum += GroundTruthHitRate(result->neighbors, truth[q]);
  }
  const double seconds = timer.ElapsedSeconds();
  out.qps = seconds > 0 ? static_cast<double>(queries.size()) / seconds : 0;
  out.completed =
      static_cast<double>(ok) / static_cast<double>(queries.size());
  out.recall = ok > 0 ? recall_sum / static_cast<double>(ok) : 0;
  if (attempts > 0) {
    out.hedge_rate =
        static_cast<double>(hedged) / static_cast<double>(attempts);
  }
  out.hedge_wins = static_cast<double>(hedge_won);
  if (ok > 0) {
    out.degraded = static_cast<double>(degraded) / static_cast<double>(ok);
  }
  return out;
}

int Run(const bench::BenchArgs& args) {
  const size_t corpus_size = bench::Scaled(4000, args.scale, 800);
  const size_t num_queries = bench::Scaled(200, args.scale, 60);
  constexpr size_t kNumShards = 4;
  constexpr uint32_t kK = 10;

  bench::Banner("Shard-E11: sharded fan-out vs single index (N = " +
                std::to_string(corpus_size) + ", " +
                std::to_string(kNumShards) + " shards)");

  WorldConfig wc;
  wc.num_concepts = 16;
  wc.seed = 91;
  auto corpus_or = MakeExperimentCorpus(wc, corpus_size);
  if (!corpus_or.ok()) {
    std::fprintf(stderr, "%s\n", corpus_or.status().ToString().c_str());
    return 1;
  }
  const ExperimentCorpus corpus = std::move(corpus_or).Value();

  // Query workload: text queries round-robin over the concepts.
  Rng rng(17);
  std::vector<RetrievalQuery> queries;
  queries.reserve(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    const TextQuery tq = corpus.world->MakeTextQuery(
        static_cast<uint32_t>(q) % wc.num_concepts, &rng);
    auto rq = EncodeTextQuery(corpus, tq.text);
    if (!rq.ok()) {
      std::fprintf(stderr, "%s\n", rq.status().ToString().c_str());
      return 1;
    }
    queries.push_back(std::move(rq).Value());
  }

  SearchParams params;
  params.k = kK;
  params.beam_width = 64;

  IndexConfig exact_index;
  exact_index.algorithm = "bruteforce";
  IndexConfig graph_index;
  graph_index.algorithm = "mqa-hybrid";

  auto make_single = [&](const IndexConfig& index) {
    return CreateRetrievalFramework("must", corpus.represented.store,
                                    corpus.represented.weights, index);
  };
  auto make_sharded = [&](const IndexConfig& index,
                          const ShardOptions& options) {
    return ShardedRetrieval::Create("must", corpus.represented.store,
                                    corpus.represented.weights, index,
                                    options);
  };

  // Brute-force oracle: ground truth for every recall number below, and
  // one side of the exact-merge parity check.
  auto oracle = make_single(exact_index);
  if (!oracle.ok()) {
    std::fprintf(stderr, "%s\n", oracle.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<uint32_t>> truth(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    auto result = (*oracle)->Retrieve(queries[q], params);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    for (const Neighbor& n : result->neighbors) {
      truth[q].push_back(n.id);
    }
  }

  ShardOptions clean_options;
  clean_options.num_shards = kNumShards;
  clean_options.quorum = 1;

  // Exact-merge parity: brute-force shards must reproduce the oracle.
  double parity = 0;
  {
    auto sharded_exact = make_sharded(exact_index, clean_options);
    if (!sharded_exact.ok()) {
      std::fprintf(stderr, "%s\n",
                   sharded_exact.status().ToString().c_str());
      return 1;
    }
    const ScenarioResult r = RunScenario(sharded_exact->get(),
                                         sharded_exact->get(), queries,
                                         truth, params);
    parity = r.recall;  // hit rate vs the oracle's own top-k
  }

  auto single_graph = make_single(graph_index);
  auto sharded_graph = make_sharded(graph_index, clean_options);
  if (!single_graph.ok() || !sharded_graph.ok()) {
    std::fprintf(stderr, "framework build failed\n");
    return 1;
  }
  const ScenarioResult unsharded = RunScenario(
      single_graph->get(), nullptr, queries, truth, params);
  const ScenarioResult clean = RunScenario(
      sharded_graph->get(), sharded_graph->get(), queries, truth, params);

  // Faulty scenario: shards 0-1 flap with seeded error faults, shards 2-3
  // suffer occasional real latency spikes (which the adaptive hedge
  // threshold turns into hedge attempts).
  FaultInjector::Global().Seed(97);
  ScenarioResult faulty;
  {
    ShardOptions faulty_options = clean_options;
    faulty_options.hedge_percentile = 95.0;
    faulty_options.hedge_min_samples = 16;
    auto fw = make_sharded(graph_index, faulty_options);
    if (!fw.ok()) {
      std::fprintf(stderr, "%s\n", fw.status().ToString().c_str());
      return 1;
    }
    FaultSpec err;
    err.probability = 0.15;
    FaultSpec spike;
    spike.code = StatusCode::kOk;
    spike.latency_ms = 5.0;
    spike.probability = 0.1;
    ScopedFault f0("shard/0/search", err);
    ScopedFault f1("shard/1/search", err);
    ScopedFault f2("shard/2/search", spike);
    ScopedFault f3("shard/3/search", spike);
    faulty = RunScenario(fw->get(), fw->get(), queries, truth, params);
  }
  FaultInjector::Global().DisarmAll();

  bench::Table table({"scenario", "qps", "recall@10", "completed",
                      "degraded", "hedge rate", "hedge wins", "brk skips",
                      "errors"});
  auto add_row = [&table](const std::string& name, const ScenarioResult& r) {
    table.AddRow({name, FormatDouble(r.qps, 1), FormatDouble(r.recall, 3),
                  FormatDouble(r.completed, 3), FormatDouble(r.degraded, 3),
                  FormatDouble(r.hedge_rate, 3),
                  FormatDouble(r.hedge_wins, 0),
                  std::to_string(r.breaker_skips),
                  std::to_string(r.errors)});
  };
  add_row("unsharded", unsharded);
  add_row("sharded clean", clean);
  add_row("sharded faulty", faulty);
  std::printf("\n");
  table.Print();
  std::printf("\nexact-merge parity (sharded bruteforce vs oracle): %s\n",
              FormatDouble(parity, 4).c_str());

  if (!args.json_path.empty()) {
    bench::JsonReporter report("bench_sharded_fanout");
    report.AddConfig("corpus_size", static_cast<double>(corpus_size));
    report.AddConfig("num_queries", static_cast<double>(num_queries));
    report.AddConfig("num_shards", static_cast<double>(kNumShards));
    report.AddMetric("clean/exact_merge_parity", parity);
    report.AddMetric("unsharded/qps", unsharded.qps);
    report.AddMetric("unsharded/recall_at_10", unsharded.recall);
    report.AddMetric("clean/qps", clean.qps);
    report.AddMetric("clean/recall_at_10", clean.recall);
    report.AddMetric("clean/degraded_fraction", clean.degraded);
    report.AddMetric("faulty/qps", faulty.qps);
    report.AddMetric("faulty/completed_fraction", faulty.completed);
    report.AddMetric("faulty/degraded_fraction", faulty.degraded);
    report.AddMetric("faulty/hedge_rate", faulty.hedge_rate);
    report.AddMetric("faulty/hedge_wins", faulty.hedge_wins);
    if (!report.WriteToFile(args.json_path)) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mqa

int main(int argc, char** argv) {
  mqa::bench::BenchArgs args = mqa::bench::ParseBenchArgs(&argc, argv);
  return mqa::Run(args);
}
