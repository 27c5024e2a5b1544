// Experiment MUST-E4 (computational pruning): the incremental-scanning
// multi-vector distance abandons computations against the current beam
// bound, cutting scanned dimensions without changing results. Abandonment
// fires when a prefix of modalities already exceeds the bound, so its
// effectiveness grows with (a) the number of modalities and (b) the skew
// of the modality weights — both are swept here.
//
// Both frameworks of a setting are built once; their query passes then
// alternate (off/on, then on/off, ...) so machine-speed drift hits both
// sides alike, and the reported ratio is the median of the per-round
// on/off QPS ratios. Pruning on and off score with the same fused kernel,
// so their results must be identical bit for bit (`identical`).
//
// Paper claim: "distances are calculated via incremental scanning,
// enhancing efficiency by circumventing unnecessary calculations" and the
// index is "refined using computational pruning techniques".

#include <algorithm>
#include <bit>
#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/experiment.h"
#include "retrieval/must.h"
#include "vector/simd/simd.h"

namespace mqa {
namespace {

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

/// Runs every query once; appends each query's neighbors to `results`
/// when non-null. Returns false on a failed query.
bool RunPass(MustFramework* fw, const std::vector<RetrievalQuery>& queries,
             const SearchParams& params,
             std::vector<std::vector<Neighbor>>* results) {
  for (const RetrievalQuery& q : queries) {
    auto r = fw->Retrieve(q, params);
    if (!r.ok()) return false;
    if (results != nullptr) results->push_back(std::move(r->neighbors));
  }
  return true;
}

/// Queries per second of one pass, or a negative value on failure.
double TimedPass(MustFramework* fw, const std::vector<RetrievalQuery>& queries,
                 const SearchParams& params) {
  Timer timer;
  if (!RunPass(fw, queries, params, nullptr)) return -1.0;
  return static_cast<double>(queries.size()) / timer.ElapsedSeconds();
}

bool BitwiseEqual(const std::vector<std::vector<Neighbor>>& a,
                  const std::vector<std::vector<Neighbor>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j].id != b[i][j].id ||
          std::bit_cast<uint32_t>(a[i][j].distance) !=
              std::bit_cast<uint32_t>(b[i][j].distance)) {
        return false;
      }
    }
  }
  return true;
}

int Run(const bench::BenchArgs& args) {
  const size_t n = bench::Scaled(12000, args.scale, 500);
  const size_t num_queries = bench::Scaled(1000, args.scale, 100);
  bench::Banner("MUST-E4: incremental-scanning pruning ablation (N = " +
                std::to_string(n) + ", k = 10, beam = 96, " +
                std::to_string(kRounds) + " alternating rounds of " +
                std::to_string(num_queries) + " queries per side)");
  bench::Table table({"modalities", "weights", "dims/query off",
                      "dims/query on", "early-abandon frac", "QPS off",
                      "QPS on", "on/off QPS", "identical"});
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
    const size_t num_m = 2 + setting.extra_modalities;
    const std::vector<float> weights =
        setting.weights.empty() ? corpus->represented.weights
                                : setting.weights;

    IndexConfig index;
    index.algorithm = "mqa-hybrid";
    index.graph.max_degree = 24;
    auto off = MustFramework::Create(corpus->represented.store, weights,
                                     index, /*enable_pruning=*/false);
    auto on = MustFramework::Create(corpus->represented.store, weights,
                                    index, /*enable_pruning=*/true);
    if (!off.ok() || !on.ok()) return 1;

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

    // Untimed first pass per side: results for the identity check and the
    // scan counters of exactly one pass.
    (*off)->ResetDistanceStats();
    (*on)->ResetDistanceStats();
    std::vector<std::vector<Neighbor>> off_results, on_results;
    if (!RunPass(off->get(), queries, params, &off_results) ||
        !RunPass(on->get(), queries, params, &on_results)) {
      return 1;
    }
    const bool identical = BitwiseEqual(off_results, on_results);
    const DistanceStats& off_stats = (*off)->distance_stats();
    const DistanceStats& on_stats = (*on)->distance_stats();
    const double abandon_frac =
        on_stats.TotalComputations() == 0
            ? 0.0
            : static_cast<double>(on_stats.pruned_computations) /
                  static_cast<double>(on_stats.TotalComputations());
    const double dims_ratio =
        off_stats.dims_scanned == 0
            ? 1.0
            : static_cast<double>(on_stats.dims_scanned) /
                  static_cast<double>(off_stats.dims_scanned);
    const uint64_t dims_off = off_stats.dims_scanned / num_queries;
    const uint64_t dims_on = on_stats.dims_scanned / num_queries;

    std::vector<double> qps_off, qps_on, ratios;
    for (int round = 0; round < kRounds; ++round) {
      double q_off, q_on;
      if (round % 2 == 0) {
        q_off = TimedPass(off->get(), queries, params);
        q_on = TimedPass(on->get(), queries, params);
      } else {
        q_on = TimedPass(on->get(), queries, params);
        q_off = TimedPass(off->get(), queries, params);
      }
      if (q_off <= 0.0 || q_on <= 0.0) return 1;
      qps_off.push_back(q_off);
      qps_on.push_back(q_on);
      ratios.push_back(q_on / q_off);
    }
    const double qps_ratio = Median(ratios);

    table.AddRow({std::to_string(num_m), setting.label,
                  std::to_string(dims_off), std::to_string(dims_on),
                  FormatDouble(abandon_frac, 3),
                  FormatDouble(Median(qps_off), 0),
                  FormatDouble(Median(qps_on), 0),
                  FormatDouble(qps_ratio, 3), identical ? "1" : "0"});
    const std::string prefix = std::string(setting.slug) + "/";
    report.AddMetric(prefix + "qps_off", Median(qps_off));
    report.AddMetric(prefix + "qps_on", Median(qps_on));
    report.AddMetric(prefix + "qps_ratio", qps_ratio);
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
      "on every row: pruning changes how much of a distance is computed,\n"
      "never a result. `on/off QPS` is the median of the per-round ratios.\n");
  return 0;
}

}  // namespace
}  // namespace mqa

int main(int argc, char** argv) {
  return mqa::Run(mqa::bench::ParseBenchArgs(&argc, argv));
}
