// Experiment MUST-E4 (computational pruning): the incremental-scanning
// multi-vector distance abandons a computation once the running sum passes
// the beam's bound, cutting scanned dimensions without changing results.
// Abandonment fires when a prefix of modalities already exceeds the bound,
// so its effectiveness grows with (a) the number of modalities and (b) the
// skew of the modality weights — both are swept here.
//
// MUST's searches score every candidate exactly, so the experiment replays
// them. Each query's traversal is recorded once: the ids it scores, in
// order, with their exact distances (the recording must reproduce Retrieve's
// answers bit for bit). Each call then gets the bound a pruning search
// would have passed it: the beam-width-th best distance scored before it,
// or +inf for the entry points and until that many have been scored. The
// recorded calls are scored by the exact kernel and by the bounded one in
// alternating rounds; `exact/pruned` is the median of the per-round time
// ratios, above 1 when the bound saves kernel time. `identical` checks
// every bounded call: one that did not abandon returns the exact distance
// bit for bit, and one that did returns a value above its bound, which the
// beam rejects just as it rejects the exact distance.
//
// Paper claim: "distances are calculated via incremental scanning,
// enhancing efficiency by circumventing unnecessary calculations" and the
// index is "refined using computational pruning techniques".

#include <algorithm>
#include <bit>
#include <cstdio>
#include <queue>

#include "bench_util.h"
#include "distance_recorder.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/experiment.h"
#include "graph/search.h"
#include "retrieval/must.h"
#include "vector/simd/simd.h"

namespace mqa {
namespace {

using bench::DistanceCall;
using bench::RecordingDistance;

struct Setting {
  const char* slug;  // JSON metric prefix
  const char* label;
  uint32_t extra_modalities;
  std::vector<float> weights;  // empty = learned
};

constexpr int kRounds = 21;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

bool BitwiseEqual(float a, float b) {
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

bool BitwiseEqual(const std::vector<Neighbor>& a,
                  const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || !BitwiseEqual(a[i].distance, b[i].distance)) {
      return false;
    }
  }
  return true;
}

/// One recorded query: its flattened vector, its distance calls and the
/// bound a pruning search would have passed each call.
struct RecordedQuery {
  Vector flat;
  std::vector<DistanceCall> calls;
  std::vector<float> bounds;
};

/// The bound of each call: +inf for the first `num_entries` (the entry
/// points), then the `width`-th best distance scored before it, +inf until
/// that many have been scored. (A pruning search passed the largest finite
/// float there instead; no exact distance reaches either.)
std::vector<float> BeamBounds(const std::vector<DistanceCall>& calls,
                              size_t num_entries, size_t width) {
  std::vector<float> bounds;
  bounds.reserve(calls.size());
  std::priority_queue<float> best;  // the `width` smallest so far
  for (size_t i = 0; i < calls.size(); ++i) {
    bounds.push_back(i >= num_entries && best.size() >= width ? best.top()
                                                              : kNoBound);
    best.push(calls[i].value);
    if (best.size() > width) best.pop();
  }
  return bounds;
}

/// Records every query's search on MUST's flat graph, scored by `weighted`
/// (the distance Retrieve builds for these queries), and checks that the
/// recording reproduces Retrieve's answers bit for bit.
Result<std::vector<RecordedQuery>> Record(
    const MustFramework& fw, const VectorStore& store,
    const WeightedMultiDistance& weighted,
    const std::vector<RetrievalQuery>& queries, const SearchParams& params) {
  const GraphIndex* index = fw.flat_graph_index();
  if (index == nullptr) return Status::InvalidArgument("needs a flat graph");
  std::vector<uint32_t> entries = index->entry_points();
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  const size_t width = std::max(params.beam_width, params.k);

  const MultiVectorDistanceComputer kernel(&store, weighted);
  std::vector<RecordedQuery> recorded(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    RecordedQuery& r = recorded[i];
    MQA_ASSIGN_OR_RETURN(
        r.flat, FlattenMultiVector(store.schema(), queries[i].modalities));
    RecordingDistance recorder(&kernel, &r.calls);
    const std::vector<Neighbor> replayed =
        BeamSearch(index->graph(), &recorder, r.flat.data(),
                   index->entry_points(), params.k, params.beam_width,
                   nullptr);
    MQA_ASSIGN_OR_RETURN(RetrievalResult expected,
                         fw.Retrieve(queries[i], params));
    if (!BitwiseEqual(replayed, expected.neighbors)) {
      return Status::Internal("recorded traversal differs from Retrieve");
    }
    r.bounds = BeamBounds(r.calls, entries.size(), width);
  }
  return recorded;
}

/// Where the timed loops leave their sums, so no call can be elided.
volatile float g_sink = 0.0f;

/// Seconds to score every recorded call, exactly or against its bound.
double TimeCalls(const WeightedMultiDistance& weighted,
                 const VectorStore& store,
                 const std::vector<RecordedQuery>& recorded, bool bounded) {
  float sink = 0.0f;
  Timer timer;
  for (const RecordedQuery& r : recorded) {
    const float* q = r.flat.data();
    for (size_t j = 0; j < r.calls.size(); ++j) {
      const float* row = store.data(r.calls[j].id);
      sink += bounded ? weighted.Pruned(q, row, r.bounds[j], nullptr)
                      : weighted.Exact(q, row);
    }
  }
  const double seconds = timer.ElapsedSeconds();
  g_sink = sink;
  return seconds;
}

int Run(const bench::BenchArgs& args) {
  const size_t n = bench::Scaled(12000, args.scale, 500);
  const size_t num_queries = bench::Scaled(1000, args.scale, 100);
  bench::Banner("MUST-E4: incremental-scanning pruning, replayed (N = " +
                std::to_string(n) + ", k = 10, beam = 96, " +
                std::to_string(kRounds) + " alternating rounds over the " +
                "recorded calls of " + std::to_string(num_queries) +
                " queries)");
  bench::Table table({"modalities", "weights", "calls/query",
                      "dims/query exact", "dims/query pruned",
                      "early-abandon frac", "exact ns/call",
                      "pruned ns/call", "exact/pruned", "identical"});
  bench::JsonReporter report("bench_incremental_pruning");
  report.AddConfig("n", static_cast<double>(n));
  report.AddConfig("queries", static_cast<double>(num_queries));
  report.AddConfig("rounds", static_cast<double>(kRounds));
  report.AddConfig("simd_level",
                   std::string(SimdLevelName(ActiveSimdLevel())));

  const Setting settings[] = {
      {"m2_learned", "learned", 0, {}},
      {"m2_skewed", "skewed 1.6/0.4", 0, {1.6f, 0.4f}},
      {"m4_learned", "learned", 2, {}},
      {"m4_skewed", "skewed 2/1/.6/.4", 2, {2.0f, 1.0f, 0.6f, 0.4f}},
  };

  for (const Setting& setting : settings) {
    WorldConfig wc;
    wc.num_concepts = 32;
    wc.latent_dim = 32;
    wc.raw_image_dim = 64;
    wc.seed = 19;
    wc.num_extra_modalities = setting.extra_modalities;
    auto corpus = MakeExperimentCorpus(wc, n);
    if (!corpus.ok()) return 1;
    const VectorStore& store = *corpus->represented.store;
    const size_t num_m = 2 + setting.extra_modalities;
    const std::vector<float> weights =
        setting.weights.empty() ? corpus->represented.weights
                                : setting.weights;

    IndexConfig index;
    index.algorithm = "mqa-hybrid";
    index.graph.max_degree = 24;
    auto fw = MustFramework::Create(corpus->represented.store, weights, index);
    if (!fw.ok()) return 1;

    std::vector<RetrievalQuery> queries;
    Rng rng(23);
    for (size_t i = 0; i < num_queries; ++i) {
      const uint32_t c =
          static_cast<uint32_t>(i % corpus->world->num_concepts());
      auto q = EncodeTextQuery(
          *corpus, corpus->world->MakeTextQuery(c, &rng).text);
      if (!q.ok()) return 1;
      queries.push_back(std::move(q).Value());
    }
    SearchParams params;
    params.k = 10;
    params.beam_width = 96;

    // Every modality of these queries is present and none carries its own
    // weights, so Retrieve scores each with the framework's weights,
    // normalized once more.
    auto weighted = WeightedMultiDistance::Create(
        store.schema(), NormalizeWeights((*fw)->weights()));
    if (!weighted.ok()) return 1;
    auto recorded = Record(**fw, store, *weighted, queries, params);
    if (!recorded.ok()) {
      std::fprintf(stderr, "%s\n", recorded.status().ToString().c_str());
      return 1;
    }

    // Untimed pass: the scan counters of each side and the identity check.
    DistanceTally exact_tally, pruned_tally;
    bool identical = true;
    uint64_t num_calls = 0;
    for (const RecordedQuery& r : *recorded) {
      const float* q = r.flat.data();
      num_calls += r.calls.size();
      for (size_t j = 0; j < r.calls.size(); ++j) {
        const float* row = store.data(r.calls[j].id);
        const float exact = weighted->Pruned(q, row, kNoBound, &exact_tally);
        const uint64_t abandoned_before = pruned_tally.pruned_computations;
        const float pruned =
            weighted->Pruned(q, row, r.bounds[j], &pruned_tally);
        const bool abandoned =
            pruned_tally.pruned_computations > abandoned_before;
        identical = identical && BitwiseEqual(exact, r.calls[j].value) &&
                    BitwiseEqual(exact, weighted->Exact(q, row)) &&
                    (abandoned ? pruned > r.bounds[j]
                               : BitwiseEqual(pruned, exact));
      }
    }
    const double abandon_frac =
        num_calls == 0 ? 0.0
                       : static_cast<double>(pruned_tally.pruned_computations) /
                             static_cast<double>(num_calls);
    const double dims_ratio =
        exact_tally.dims_scanned == 0
            ? 1.0
            : static_cast<double>(pruned_tally.dims_scanned) /
                  static_cast<double>(exact_tally.dims_scanned);

    std::vector<double> exact_s, pruned_s, ratios;
    for (int round = 0; round < kRounds; ++round) {
      double e, p;
      if (round % 2 == 0) {
        e = TimeCalls(*weighted, store, *recorded, /*bounded=*/false);
        p = TimeCalls(*weighted, store, *recorded, /*bounded=*/true);
      } else {
        p = TimeCalls(*weighted, store, *recorded, /*bounded=*/true);
        e = TimeCalls(*weighted, store, *recorded, /*bounded=*/false);
      }
      exact_s.push_back(e);
      pruned_s.push_back(p);
      ratios.push_back(e / p);
    }
    const double per_call = 1e9 / static_cast<double>(std::max<uint64_t>(
                                      num_calls, 1));
    const double exact_ns = Median(exact_s) * per_call;
    const double pruned_ns = Median(pruned_s) * per_call;
    const double kernel_ratio = Median(ratios);

    table.AddRow({std::to_string(num_m), setting.label,
                  std::to_string(num_calls / num_queries),
                  std::to_string(exact_tally.dims_scanned / num_queries),
                  std::to_string(pruned_tally.dims_scanned / num_queries),
                  FormatDouble(abandon_frac, 3), FormatDouble(exact_ns, 1),
                  FormatDouble(pruned_ns, 1), FormatDouble(kernel_ratio, 3),
                  identical ? "1" : "0"});
    const std::string prefix = std::string(setting.slug) + "/";
    report.AddMetric(prefix + "exact_ns", exact_ns);
    report.AddMetric(prefix + "pruned_ns", pruned_ns);
    report.AddMetric(prefix + "kernel_ratio", kernel_ratio);
    report.AddMetric(prefix + "abandon_frac", abandon_frac);
    report.AddMetric(prefix + "dims_ratio", dims_ratio);
    report.AddMetric(prefix + "identical", identical ? 1.0 : 0.0);
  }
  table.Print();
  if (!args.json_path.empty() && !report.WriteToFile(args.json_path)) {
    return 1;
  }
  std::printf(
      "\nExpected shape: early abandonment and scanned-dimension savings\n"
      "grow with modality count and with weight skew (heaviest-first scan\n"
      "order crosses the bound sooner when one modality dominates); with\n"
      "near-balanced weights a prefix rarely exceeds the full-distance\n"
      "bound and pruning costs only its boundary checks. `identical` is 1\n"
      "on every row: the bound changes how much of a distance is computed,\n"
      "never which candidates the beam keeps. `exact/pruned` is the median\n"
      "of the per-round kernel time ratios; MUST's production search scores\n"
      "exactly because, measured end to end, the bound did not pay.\n");
  return 0;
}

}  // namespace
}  // namespace mqa

int main(int argc, char** argv) {
  return mqa::Run(mqa::bench::ParseBenchArgs(&argc, argv));
}
