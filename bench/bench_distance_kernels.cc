// Micro-benchmarks of the distance kernels underlying every experiment:
// plain L2, dot product, weighted multi-vector distance, the
// incremental-scanning (early-abandon) variants at different bound
// tightnesses, and the batched form over contiguous and gathered rows.
// google-benchmark timing harness.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <string>

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

// The cost of the boundary checks alone: the same 4-segment call with no
// bound (+inf: the kernel skips its checks) and with a finite bound that
// is never reached (a check at each of the 3 boundaries, none abandons).
void BM_WeightedMultiBound(benchmark::State& state, float bound) {
  VectorSchema schema;
  schema.dims = {32, 32, 32, 32};
  auto dist =
      WeightedMultiDistance::Create(schema, {4.0f, 1.0f, 1.0f, 1.0f});
  Rng rng(7);
  const Vector a = RandomVector(schema.TotalDim(), &rng);
  const Vector b = RandomVector(schema.TotalDim(), &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist->Pruned(a.data(), b.data(), bound,
                                          nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_WeightedMultiBound, inf, kNoBound);
BENCHMARK_CAPTURE(BM_WeightedMultiBound, unreached,
                  std::numeric_limits<float>::max());

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
    dist->ExactBatch(q.data(), store.data(0), store.row_stride(),
                     /*ids=*/nullptr, n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WeightedMultiExactBatch);

// The build loops' one-to-many form: 64 random rows of a store larger
// than L2 (32768 rows: 8 MiB at 2 segments, 16 MiB at 4), scored from one
// row. Gathered is one ExactBatch call over the ids (4 rows per pass);
// per-row is the per-pair loop it replaced.
class GatherFixture {
 public:
  static constexpr uint32_t kRows = 32768;
  static constexpr size_t kBatch = 64;
  static constexpr size_t kBatches = 512;

  explicit GatherFixture(size_t num_m) : store_(Schema(num_m)) {
    std::vector<float> weights;
    for (size_t m = 0; m < num_m; ++m) weights.push_back(1.0f + m);
    dist_.emplace(*WeightedMultiDistance::Create(store_.schema(), weights));
    Rng rng(8);
    store_.Reserve(kRows);
    for (uint32_t i = 0; i < kRows; ++i) {
      (void)store_.Add(RandomVector(store_.row_dim(), &rng));
    }
    ids_.resize(kBatch * kBatches);
    for (uint32_t& id : ids_) {
      id = static_cast<uint32_t>(rng.NextUint64(kRows));
    }
  }

  /// The ids of the next batch, cycling through kBatches of them.
  const uint32_t* NextBatch() {
    const uint32_t* batch = ids_.data() + next_ * kBatch;
    next_ = (next_ + 1) % kBatches;
    return batch;
  }
  const VectorStore& store() const { return store_; }
  const WeightedMultiDistance& dist() const { return *dist_; }

 private:
  static VectorSchema Schema(size_t num_m) {
    VectorSchema schema;
    schema.dims.assign(num_m, 32);
    return schema;
  }

  VectorStore store_;
  std::optional<WeightedMultiDistance> dist_;
  std::vector<uint32_t> ids_;
  size_t next_ = 0;
};

void BM_WeightedMultiGather(benchmark::State& state) {
  GatherFixture f(state.range(0));
  const float* q = f.store().data(0);
  std::vector<float> out(GatherFixture::kBatch);
  for (auto _ : state) {
    f.dist().ExactBatch(q, f.store().data(0), f.store().row_stride(),
                        f.NextBatch(), GatherFixture::kBatch, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * GatherFixture::kBatch);
}
BENCHMARK(BM_WeightedMultiGather)->Arg(2)->Arg(4);

void BM_WeightedMultiGatherPerRow(benchmark::State& state) {
  GatherFixture f(state.range(0));
  const float* q = f.store().data(0);
  std::vector<float> out(GatherFixture::kBatch);
  for (auto _ : state) {
    const uint32_t* ids = f.NextBatch();
    for (size_t i = 0; i < GatherFixture::kBatch; ++i) {
      out[i] = f.dist().Exact(q, f.store().data(ids[i]));
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * GatherFixture::kBatch);
}
BENCHMARK(BM_WeightedMultiGatherPerRow)->Arg(2)->Arg(4);

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

/// Console output as usual, plus one `<name-slug>/ns_per_op` metric per
/// benchmark for the JSON report: its run, or under
/// --benchmark_repetitions its fastest repetition. Noise on a shared
/// machine (a preemption, a busy sibling hyperthread) only ever adds
/// time: on a shared 4-vCPU VM one dispatched run read 15.0-15.4 ns in
/// 3 repetitions of a kernel and 28.4-32.3 ns in the other 6. With
/// --benchmark_enable_random_interleaving the repetitions spread over
/// the whole run, so some land in a quiet phase.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit CaptureReporter(bench::JsonReporter* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const std::string metric =
          bench::JsonReporter::Slug(run.benchmark_name()) + "/ns_per_op";
      const double ns = run.GetAdjustedRealTime();
      double& fastest = fastest_.try_emplace(metric, ns).first->second;
      fastest = std::min(fastest, ns);
      out_->AddMetric(metric, fastest);
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  bench::JsonReporter* out_;
  std::map<std::string, double> fastest_;  ///< metric -> fastest run (ns)
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
