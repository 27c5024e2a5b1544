// Experiment MUST-E2 (efficiency): QPS vs recall trade-off per retrieval
// framework, sweeping the beam width. Recall here is index recall: overlap
// with the same framework's exhaustive (bruteforce) answer, which isolates
// the navigation graph's speed/accuracy trade-off from encoder quality.
//
// Paper claim: the merging-free search over one unified navigation graph
// (MUST) reaches a better efficiency/accuracy operating point than
// multi-streamed retrieval (MR), which must run one search per modality
// and merge.
//
// QPS is the median over timed rounds (each round runs every query once),
// so a slow phase of the machine moves one round, not the cell. At beam 64
// MUST's search time is also decomposed, in rounds alternating with the
// timed ones: each query's sequence of distance calls is recorded, then
// replayed through the same traversal with a distance computer that returns
// the recorded values (the traversal is deterministic, so it takes the same
// path at zero kernel cost: bookkeeping_us), and as bare kernel calls in the
// same order without the traversal (kernel_us).

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/experiment.h"
#include "graph/search.h"
#include "retrieval/factory.h"
#include "retrieval/must.h"

namespace mqa {
namespace {

/// Timed rounds per cell; every cell reports the median round.
constexpr int kRounds = 21;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One query distance call of a search, as the traversal issued it.
struct DistanceCall {
  uint32_t id;
  float bound;  ///< kNoBound for Distance()
  float value;
};

/// Forwards to a real distance computer and records every query distance.
class RecordingDistance : public DistanceComputer {
 public:
  RecordingDistance(const DistanceComputer* base,
                    std::vector<DistanceCall>* calls)
      : base_(base), calls_(calls) {}

  float Distance(const float* q, uint32_t id,
                 DistanceContext* ctx) const override {
    const float d = base_->Distance(q, id, ctx);
    calls_->push_back({id, kNoBound, d});
    return d;
  }
  float DistanceWithBound(const float* q, uint32_t id, float bound,
                          DistanceContext* ctx) const override {
    const float d = base_->DistanceWithBound(q, id, bound, ctx);
    calls_->push_back({id, bound, d});
    return d;
  }
  void Prefetch(uint32_t id) const override { base_->Prefetch(id); }
  float DistanceBetween(uint32_t a, uint32_t b) const override {
    return base_->DistanceBetween(a, b);
  }
  size_t dim() const override { return base_->dim(); }
  uint32_t size() const override { return base_->size(); }

 private:
  const DistanceComputer* base_;
  std::vector<DistanceCall>* calls_;
};

/// Returns a recorded sequence of distances, in order, touching no vector.
class ReplayDistance : public DistanceComputer {
 public:
  explicit ReplayDistance(uint32_t size) : size_(size) {}

  void Reset(const std::vector<DistanceCall>* calls) {
    calls_ = calls;
    next_ = 0;
  }
  float Distance(const float*, uint32_t, DistanceContext*) const override {
    return (*calls_)[next_++].value;
  }
  float DistanceWithBound(const float*, uint32_t, float,
                          DistanceContext*) const override {
    return (*calls_)[next_++].value;
  }
  float DistanceBetween(uint32_t, uint32_t) const override { return 0.0f; }
  size_t dim() const override { return 0; }
  uint32_t size() const override { return size_; }

 private:
  uint32_t size_;
  const std::vector<DistanceCall>* calls_ = nullptr;
  mutable size_t next_ = 0;  // one replay runs on one thread
};

/// MUST-E2's beam-64 decomposition: per-query microseconds of Retrieve, of
/// the traversal alone and of the kernel calls alone (medians of rounds).
struct Decomposition {
  double retrieve_us = 0;
  double bookkeeping_us = 0;
  double kernel_us = 0;
};

/// Records MUST's distance calls at `params`, checks that replaying them
/// reproduces Retrieve's answers exactly, then times Retrieve, the replayed
/// traversal and the bare kernel calls in alternating rounds.
Result<Decomposition> DecomposeMust(RetrievalFramework* fw,
                                    const ExperimentCorpus& corpus,
                                    const std::vector<RetrievalQuery>& queries,
                                    const SearchParams& params) {
  auto* must = dynamic_cast<MustFramework*>(fw);
  if (must == nullptr || must->flat_graph_index() == nullptr) {
    return Status::InvalidArgument("decomposition needs MUST on a flat graph");
  }
  const GraphIndex& index = *must->flat_graph_index();
  const VectorStore& store = *corpus.represented.store;
  MQA_ASSIGN_OR_RETURN(
      WeightedMultiDistance weighted,
      WeightedMultiDistance::Create(store.schema(), must->weights()));
  MultiVectorDistanceComputer kernel(&store, std::move(weighted),
                                     /*enable_pruning=*/true);

  std::vector<Vector> flat(queries.size());
  std::vector<std::vector<DistanceCall>> calls(queries.size());
  ReplayDistance replay(store.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    MQA_ASSIGN_OR_RETURN(
        flat[i], FlattenMultiVector(store.schema(), queries[i].modalities));
    RecordingDistance recorder(&kernel, &calls[i]);
    BeamSearch(index.graph(), &recorder, flat[i].data(), index.entry_points(),
               params.k, params.beam_width, nullptr);
    MQA_ASSIGN_OR_RETURN(RetrievalResult expected,
                         fw->Retrieve(queries[i], params));
    replay.Reset(&calls[i]);
    const std::vector<Neighbor> replayed =
        BeamSearch(index.graph(), &replay, flat[i].data(),
                   index.entry_points(), params.k, params.beam_width, nullptr);
    if (replayed != expected.neighbors) {
      return Status::Internal("replayed traversal differs from Retrieve");
    }
  }

  std::vector<double> retrieve_s, replay_s, kernel_s;
  for (int round = 0; round < kRounds; ++round) {
    Timer timer;
    for (const RetrievalQuery& q : queries) {
      MQA_RETURN_NOT_OK(fw->Retrieve(q, params).status());
    }
    retrieve_s.push_back(timer.ElapsedSeconds());

    timer.Reset();
    for (size_t i = 0; i < queries.size(); ++i) {
      replay.Reset(&calls[i]);
      BeamSearch(index.graph(), &replay, flat[i].data(), index.entry_points(),
                 params.k, params.beam_width, nullptr);
    }
    replay_s.push_back(timer.ElapsedSeconds());

    timer.Reset();
    DistanceContext ctx;
    for (size_t i = 0; i < queries.size(); ++i) {
      for (const DistanceCall& c : calls[i]) {
        kernel.DistanceWithBound(flat[i].data(), c.id, c.bound, &ctx);
      }
    }
    kernel_s.push_back(timer.ElapsedSeconds());
  }
  const double per_query = 1e6 / static_cast<double>(queries.size());
  return Decomposition{Median(retrieve_s) * per_query,
                       Median(replay_s) * per_query,
                       Median(kernel_s) * per_query};
}

int Run(const bench::BenchArgs& args) {
  const size_t n = bench::Scaled(20000, args.scale, 2000);
  bench::Banner("MUST-E2: QPS vs recall per framework (N = " +
                std::to_string(n) + ", k = 10)");

  WorldConfig wc;
  wc.num_concepts = 40;
  wc.latent_dim = 32;
  wc.raw_image_dim = 64;
  wc.seed = 3;
  auto corpus = MakeExperimentCorpus(wc, n);
  if (!corpus.ok()) return 1;

  bench::JsonReporter report("bench_qps_recall");
  report.AddConfig("n", static_cast<double>(n));
  report.AddConfig("k", 10.0);
  report.AddConfig("scale", args.scale);

  // Pre-encode a bank of two-round-style queries (text-only, filled).
  const size_t kQueries = bench::Scaled(100, args.scale, 20);
  std::vector<RetrievalQuery> queries;
  Rng rng(5);
  for (size_t i = 0; i < kQueries; ++i) {
    const uint32_t c =
        static_cast<uint32_t>(i % corpus->world->num_concepts());
    const TextQuery tq = corpus->world->MakeTextQuery(c, &rng);
    auto q = EncodeTextQuery(*corpus, tq.text);
    if (!q.ok()) return 1;
    queries.push_back(std::move(q).Value());
  }

  bench::Table table(
      {"framework", "beam", "recall@10 (vs exact)", "QPS", "avg dist comps"});
  std::vector<std::string> decomposition;

  for (const std::string name : {"must", "mr", "je"}) {
    // Exact reference: same framework on a bruteforce index.
    IndexConfig brute;
    brute.algorithm = "bruteforce";
    auto exact_fw =
        CreateRetrievalFramework(name, corpus->represented.store,
                                 corpus->represented.weights, brute);
    if (!exact_fw.ok()) return 1;
    std::vector<std::vector<Neighbor>> exact(kQueries);
    SearchParams exact_params;
    exact_params.k = 10;
    for (size_t i = 0; i < kQueries; ++i) {
      auto r = (*exact_fw)->Retrieve(queries[i], exact_params);
      if (!r.ok()) return 1;
      exact[i] = r->neighbors;
    }

    IndexConfig index;
    index.algorithm = "mqa-hybrid";
    index.graph.max_degree = 24;
    auto fw = CreateRetrievalFramework(name, corpus->represented.store,
                                       corpus->represented.weights, index);
    if (!fw.ok()) return 1;

    for (size_t beam : {16, 32, 64, 128, 256}) {
      SearchParams params;
      params.k = 10;
      params.beam_width = beam;
      double recall = 0;
      uint64_t dist_comps = 0;
      for (size_t i = 0; i < kQueries; ++i) {
        auto r = (*fw)->Retrieve(queries[i], params);
        if (!r.ok()) return 1;
        dist_comps += r->stats.dist_comps;
        std::vector<uint32_t> gt;
        for (const Neighbor& e : exact[i]) gt.push_back(e.id);
        recall += GroundTruthHitRate(r->neighbors, gt);
      }
      const std::string prefix = name + "/beam" + std::to_string(beam);
      double qps = 0;
      if (name == "must" && beam == 64) {
        auto parts = DecomposeMust(fw->get(), *corpus, queries, params);
        if (!parts.ok()) {
          std::fprintf(stderr, "%s\n", parts.status().ToString().c_str());
          return 1;
        }
        qps = 1e6 / parts->retrieve_us;
        decomposition = {FormatDouble(parts->retrieve_us, 1),
                         FormatDouble(parts->bookkeeping_us, 1),
                         FormatDouble(parts->kernel_us, 1)};
        report.AddMetric(prefix + "/retrieve_us", parts->retrieve_us);
        report.AddMetric(prefix + "/bookkeeping_us", parts->bookkeeping_us);
        report.AddMetric(prefix + "/kernel_us", parts->kernel_us);
        report.AddMetric(prefix + "/bookkeeping_share",
                         parts->bookkeeping_us / parts->retrieve_us);
      } else {
        std::vector<double> rounds;
        for (int round = 0; round < kRounds; ++round) {
          Timer timer;
          for (size_t i = 0; i < kQueries; ++i) {
            if (!(*fw)->Retrieve(queries[i], params).ok()) return 1;
          }
          rounds.push_back(timer.ElapsedSeconds());
        }
        qps = kQueries / Median(std::move(rounds));
      }
      table.AddRow({name, std::to_string(beam),
                    FormatDouble(recall / kQueries, 3), FormatDouble(qps, 0),
                    std::to_string(dist_comps / kQueries)});
      report.AddMetric(prefix + "/recall_at_10", recall / kQueries);
      report.AddMetric(prefix + "/qps", qps);
      report.AddMetric(prefix + "/dist_comps",
                       static_cast<double>(dist_comps / kQueries));
    }
  }
  table.Print();
  std::printf(
      "\nMUST at beam 64, per query: Retrieve %s us; the same traversal "
      "with a zero-cost kernel %s us; the kernel calls alone %s us\n",
      decomposition[0].c_str(), decomposition[1].c_str(),
      decomposition[2].c_str());
  if (!args.json_path.empty() && !report.WriteToFile(args.json_path)) {
    return 1;
  }
  std::printf(
      "\nExpected shape: recall rises with beam width for every framework;\n"
      "at matched recall, must achieves higher QPS than mr (one unified\n"
      "graph traversal instead of one per modality plus a merge).\n");
  return 0;
}

}  // namespace
}  // namespace mqa

int main(int argc, char** argv) {
  return mqa::Run(mqa::bench::ParseBenchArgs(&argc, argv));
}
