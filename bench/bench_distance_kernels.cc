// Micro-benchmarks of the distance kernels underlying every experiment:
// plain L2, dot product, weighted multi-vector distance, and the
// incremental-scanning (early-abandon) variants at different bound
// tightnesses. google-benchmark timing harness.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/random.h"
#include "vector/multi_distance.h"
#include "vector/simd/simd.h"
#include "vector/vector_store.h"

namespace mqa {
namespace {

Vector RandomVector(size_t dim, Rng* rng) {
  Vector v(dim);
  for (auto& x : v) x = static_cast<float>(rng->Gaussian());
  return v;
}

void BM_L2Sq(benchmark::State& state) {
  const size_t dim = state.range(0);
  Rng rng(1);
  const Vector a = RandomVector(dim, &rng);
  const Vector b = RandomVector(dim, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(L2Sq(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2Sq)->Arg(32)->Arg(64)->Arg(128)->Arg(512);

void BM_Dot(benchmark::State& state) {
  const size_t dim = state.range(0);
  Rng rng(2);
  const Vector a = RandomVector(dim, &rng);
  const Vector b = RandomVector(dim, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dot(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Dot)->Arg(32)->Arg(128);

void BM_WeightedMultiExact(benchmark::State& state) {
  const size_t num_m = state.range(0);
  VectorSchema schema;
  std::vector<float> weights;
  for (size_t m = 0; m < num_m; ++m) {
    schema.dims.push_back(32);
    weights.push_back(1.0f + m);
  }
  auto dist = WeightedMultiDistance::Create(schema, weights);
  Rng rng(3);
  const Vector a = RandomVector(schema.TotalDim(), &rng);
  const Vector b = RandomVector(schema.TotalDim(), &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist->Exact(a.data(), b.data()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WeightedMultiExact)->Arg(1)->Arg(2)->Arg(4);

// Pruned distance with the bound set to a fraction of the true distance:
// tighter bounds abandon earlier and run faster.
void BM_WeightedMultiPruned(benchmark::State& state) {
  const int bound_percent = state.range(0);
  VectorSchema schema;
  schema.dims = {32, 32, 32, 32};
  auto dist =
      WeightedMultiDistance::Create(schema, {1.0f, 1.0f, 1.0f, 1.0f});
  Rng rng(4);
  const Vector a = RandomVector(schema.TotalDim(), &rng);
  const Vector b = RandomVector(schema.TotalDim(), &rng);
  const float exact = dist->Exact(a.data(), b.data());
  const float bound = exact * bound_percent / 100.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist->Pruned(a.data(), b.data(), bound,
                                          nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WeightedMultiPruned)->Arg(10)->Arg(50)->Arg(150);

// The batched rerank path: one query against N contiguous padded rows
// (disk-index pivot scans). Same per-row kernel as
// BM_WeightedMultiExact plus cross-row prefetch.
void BM_WeightedMultiExactBatch(benchmark::State& state) {
  const uint32_t n = 1024;
  VectorSchema schema;
  schema.dims = {32, 32, 32, 32};
  auto dist =
      WeightedMultiDistance::Create(schema, {1.0f, 2.0f, 3.0f, 4.0f});
  VectorStore store(schema);
  Rng rng(6);
  for (uint32_t i = 0; i < n; ++i) {
    (void)store.Add(RandomVector(schema.TotalDim(), &rng));
  }
  const Vector q = RandomVector(schema.TotalDim(), &rng);
  std::vector<float> out(n);
  for (auto _ : state) {
    dist->ExactBatch(q.data(), store.data(0), store.row_stride(), n,
                     out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WeightedMultiExactBatch);

void BM_FlatStoreScan(benchmark::State& state) {
  const uint32_t n = 10000;
  VectorSchema schema;
  schema.dims = {64};
  VectorStore store(schema);
  Rng rng(5);
  for (uint32_t i = 0; i < n; ++i) {
    (void)store.Add(RandomVector(64, &rng));
  }
  const Vector q = RandomVector(64, &rng);
  FlatDistanceComputer dist(&store, Metric::kL2);
  for (auto _ : state) {
    float sum = 0;
    for (uint32_t i = 0; i < n; ++i) {
      sum += dist.Distance(q.data(), i, nullptr);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FlatStoreScan);

/// Console output as usual, plus every per-iteration run captured as a
/// `<name-slug>/ns_per_op` metric for the JSON report.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit CaptureReporter(bench::JsonReporter* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      out_->AddMetric(bench::JsonReporter::Slug(run.benchmark_name()) +
                          "/ns_per_op",
                      run.GetAdjustedRealTime());
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  bench::JsonReporter* out_;
};

}  // namespace
}  // namespace mqa

int main(int argc, char** argv) {
  // Take --json/--scale out of argv before google-benchmark sees them
  // (it rejects unknown flags).
  const mqa::bench::BenchArgs args = mqa::bench::ParseBenchArgs(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  mqa::bench::JsonReporter report("bench_distance_kernels");
  // Recorded so ratio gates (tools/bench_check.py --compare) can tell a
  // scalar-pinned run from a dispatched one and skip same-level pairs.
  report.AddConfig("simd_level",
                   std::string(mqa::SimdLevelName(mqa::ActiveSimdLevel())));
  mqa::CaptureReporter console(&report);
  benchmark::RunSpecifiedBenchmarks(&console);
  if (!args.json_path.empty() && !report.WriteToFile(args.json_path)) {
    return 1;
  }
  return 0;
}
