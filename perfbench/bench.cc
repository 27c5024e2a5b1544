#include "bench.h"

#include <sys/vfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/sync.h"
#include "core/durable_system.h"
#include "percentile.h"
#include "retrieval/must.h"
#include "server/server.h"
#include "spans.h"
#include "storage/knowledge_base.h"
#include "storage/wal.h"
#include "vector/multi_distance.h"
#include "vector/simd/simd.h"

namespace perfbench {

namespace {

using mqa::AnswerTurn;
using mqa::Coordinator;
using mqa::UserQuery;

/// WAL records per fsync in the churn workload: none within a run. The
/// WAL must live in the checkout, on a disk, where a per-record fsync
/// measures the host's disk rather than the program (see NOTES.md).
constexpr size_t kWalSyncEvery = size_t{1} << 30;

/// Turns whose recall is checked against brute force.
constexpr size_t kRecallTurns = 1000;
/// Kernel microbenchmark: queries x rows x repeats of each distance.
constexpr size_t kKernelQueries = 64;
constexpr size_t kKernelRows = 256;
constexpr size_t kKernelRepeats = 16;
/// Turns (Server workloads) or ops (churn) each traced pass covers.
constexpr size_t kTraceOps = 3000;
/// The traced passes alternate in blocks of this many dialogues or ops.
constexpr size_t kTraceBlock = 50;
/// A reference slice runs after every this many ops (churn) or completed
/// turns (Server workloads) of a timed run.
constexpr size_t kSliceEvery = 16;
/// One in this many acked churn inserts is tracked for the findability
/// check after the timed run.
constexpr uint64_t kTrackInsertOneIn = 8;

uint64_t WarmupSeed(uint64_t seed) { return seed ^ 0x5EED5EED5EED5EEDULL; }

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Peak resident set (VmHWM) of this process, in MiB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string FsType(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext4";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x794C7630UL:
      return "overlayfs";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(st.f_type));
  return buf;
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One slice of a fixed, register-only CPU workload that does not depend
/// on the program (an integer and a float dependency chain; about 25 us).
/// Timed between ops on the thread that runs them, it measures the speed
/// the machine gives that thread at that moment: the timed runs divide
/// their times by `MachineFactor` of these slices (see NOTES.md).
int64_t ReferenceSliceNs() {
  static volatile uint64_t seed = 1;
  const int64_t t0 = NowNanos();
  uint64_t x = seed;
  for (int i = 0; i < 8000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  float f = static_cast<float>(x & 7);
  for (int i = 0; i < 4096; ++i) f = f * 0.999f + 1.0f;
  seed = x + static_cast<uint64_t>(f);
  return NowNanos() - t0;
}

/// Median slice time over the slice time of the machine the benchmark was
/// calibrated on: above 1, the machine ran slower than that. The median,
/// because a slice that is preempted reads milliseconds, not microseconds.
constexpr double kReferenceSliceNs = 25000.0;
double MachineFactor(const std::vector<double>& slice_ns) {
  return slice_ns.empty()
             ? 1.0
             : PercentileOf(slice_ns, 0.5).value / kReferenceSliceNs;
}

/// Collects metrics and prints each as it is added.
class Report {
 public:
  Report(RunResult* result, bool verbose) : result_(result), verbose_(verbose) {}

  void Add(const std::string& name, double value, const std::string& unit,
           size_t count = 1) {
    result_->metrics.push_back({name, value, unit, count});
    if (verbose_) {
      std::printf("  %-28s %14.6g %-8s (n=%zu)\n", name.c_str(), value,
                  unit.c_str(), count);
    }
  }

  void AddPercentile(const std::string& name, const Percentile& p,
                     const std::string& unit) {
    result_->metrics.push_back({name, p.value, unit, p.count});
    if (verbose_) {
      std::printf("  %-28s %s\n", name.c_str(), Describe(p, unit.c_str()).c_str());
    }
  }

  void Note(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    if (!verbose_) return;
    va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
  }

  void Fail(const std::string& why) {
    if (result_->check_failures.size() < 20) {
      result_->check_failures.push_back(why);
    }
    ++failures_;
  }
  uint64_t failures() const { return failures_; }

 private:
  RunResult* result_;
  bool verbose_;
  uint64_t failures_ = 0;
};

/// "" when a turn passes every output check, else why it does not.
std::string CheckTurn(const mqa::Result<AnswerTurn>& r, size_t k) {
  if (!r.ok()) return "turn failed: " + r.status().ToString();
  if (r->items.size() != k) {
    return "turn returned " + std::to_string(r->items.size()) + " items";
  }
  if (r->answer.empty()) return "turn returned an empty answer";
  if (r->degraded) return "turn ran degraded";
  return "";
}

/// The per-turn totals of SearchStats.
struct SearchTotals {
  uint64_t turns = 0;
  uint64_t hops = 0;
  uint64_t dist_comps = 0;

  void Add(const AnswerTurn& turn) {
    ++turns;
    hops += turn.retrieval.stats.hops;
    dist_comps += turn.retrieval.stats.dist_comps;
  }
};

/// Deltas of MustFramework::distance_stats().
struct DistanceTotals {
  uint64_t full = 0;
  uint64_t pruned = 0;
  uint64_t dims = 0;
  uint64_t sketch = 0;

  static DistanceTotals Of(const Coordinator* c) {
    const auto* must =
        dynamic_cast<const mqa::MustFramework*>(c->framework_const());
    DistanceTotals t;
    if (must == nullptr) return t;
    const mqa::DistanceStats& s = must->distance_stats();
    t.full = s.full_computations;
    t.pruned = s.pruned_computations;
    t.dims = s.dims_scanned;
    t.sketch = s.sketch_rejects;
    return t;
  }
  void AddDelta(const DistanceTotals& before, const DistanceTotals& after) {
    full += after.full - before.full;
    pruned += after.pruned - before.pruned;
    dims += after.dims - before.dims;
    sketch += after.sketch - before.sketch;
  }
  uint64_t calls() const { return full + pruned; }
};

/// A turn kept for the recall check: its query as retrieval saw it and
/// the ids it returned.
struct RecallSample {
  UserQuery query;
  std::vector<uint64_t> returned;
};

/// Round `round` of `d` as retrieval sees it: the text after the
/// rewriter resolved it against the dialogue so far (round 1's text), and
/// round 2's clicked result.
RecallSample MakeRecallSample(const Dialogue& d, int round, uint64_t selected,
                              const std::vector<mqa::RetrievedItem>& items) {
  RecallSample sample;
  mqa::ContextualQueryRewriter rewriter;
  if (round == 0) {
    sample.query = d.first;
  } else {
    rewriter.ObserveTurn(d.first.text);
    sample.query = d.second;
    sample.query.selected_object = selected;
  }
  sample.query.text = rewriter.Rewrite(sample.query.text);
  for (const mqa::RetrievedItem& item : items) {
    sample.returned.push_back(item.id);
  }
  return sample;
}

/// An encoded query with its effective weights and its exact 10th
/// distance, for the kernel microbenchmark.
struct KernelQuery {
  std::vector<float> flat;
  std::vector<float> weights;
  float kth = 0.0f;
};

/// Brute-force weighted search over the live rows, with the turn's
/// weights resolved exactly as MustFramework::Retrieve resolves them.
/// Returns the recall of `returned` and fills `kernel` with the query.
mqa::Result<double> RecallOf(Coordinator* c, const RecallSample& sample,
                             size_t k, KernelQuery* kernel) {
  MQA_ASSIGN_OR_RETURN(mqa::RetrievalQuery rq,
                       c->executor()->EncodeUserQuery(sample.query));
  const mqa::VectorSchema& schema = c->store().schema();
  std::vector<float> w =
      rq.weights.empty() ? c->framework_const()->weights() : rq.weights;
  std::vector<float> flat(schema.TotalDim(), 0.0f);
  size_t offset = 0;
  for (size_t m = 0; m < schema.num_modalities(); ++m) {
    const mqa::Vector& part = rq.modalities.parts[m];
    if (part.empty()) {
      w[m] = 0.0f;
    } else {
      std::copy(part.begin(), part.end(), flat.begin() + offset);
    }
    offset += schema.dims[m];
  }
  w = mqa::NormalizeWeights(std::move(w));
  MQA_ASSIGN_OR_RETURN(mqa::WeightedMultiDistance dist,
                       mqa::WeightedMultiDistance::Create(schema, w));
  std::vector<std::pair<float, uint64_t>> all;
  all.reserve(c->store().size());
  for (uint32_t id = 0; id < c->store().size(); ++id) {
    if (c->kb().IsDeleted(id)) continue;
    all.emplace_back(dist.Exact(flat.data(), c->store().data(id)), id);
  }
  const size_t n = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + n, all.end());
  size_t hits = 0;
  for (size_t i = 0; i < n; ++i) {
    hits += std::count(sample.returned.begin(), sample.returned.end(),
                       all[i].second);
  }
  if (kernel != nullptr && n > 0) {
    kernel->flat = std::move(flat);
    kernel->weights = std::move(w);
    kernel->kth = all[n - 1].first;
  }
  return static_cast<double>(hits) / static_cast<double>(k);
}

/// Mean time per call of each distance kernel, over `calls` calls each.
struct KernelTimes {
  double exact_ns = 0.0;
  double pruned_ns = 0.0;
  size_t calls = 0;
};

/// Times WeightedMultiDistance::Exact and ::Pruned on workload rows: each
/// kernel query against a seeded sample of live rows, with the query's
/// exact k-th distance as the pruning bound.
mqa::Result<KernelTimes> TimeKernels(
    Coordinator* c, const std::vector<KernelQuery>& queries, uint64_t seed) {
  const mqa::VectorSchema& schema = c->store().schema();
  mqa::Rng rng(seed);
  std::vector<const float*> rows;
  while (rows.size() < kKernelRows) {
    const uint64_t id = rng.NextUint64(c->store().size());
    if (!c->kb().IsDeleted(id)) rows.push_back(c->store().data(id));
  }
  double sink = 0.0;
  int64_t exact_ns = 0;
  int64_t pruned_ns = 0;
  size_t calls = 0;
  for (const KernelQuery& q : queries) {
    MQA_ASSIGN_OR_RETURN(mqa::WeightedMultiDistance dist,
                         mqa::WeightedMultiDistance::Create(schema, q.weights));
    int64_t t0 = NowNanos();
    for (size_t r = 0; r < kKernelRepeats; ++r) {
      for (const float* row : rows) sink += dist.Exact(q.flat.data(), row);
    }
    int64_t t1 = NowNanos();
    exact_ns += t1 - t0;
    t0 = NowNanos();
    for (size_t r = 0; r < kKernelRepeats; ++r) {
      for (const float* row : rows) {
        sink += dist.Pruned(q.flat.data(), row, q.kth, nullptr);
      }
    }
    t1 = NowNanos();
    pruned_ns += t1 - t0;
    calls += kKernelRepeats * rows.size();
  }
  volatile double keep = sink;  // the timed loops must not be elided
  (void)keep;
  return KernelTimes{Ratio(static_cast<double>(exact_ns), calls),
                     Ratio(static_cast<double>(pruned_ns), calls), calls};
}

/// Issues one turn as the layer calls Coordinator::RunTurn makes, in its
/// order, each in its own span under one "core.layer_calls" span. Returns
/// the items, for round 2's selection.
mqa::Result<std::vector<mqa::RetrievedItem>> LayerCallsTurn(
    Coordinator* c, const UserQuery& query, Coordinator::DialogueState* state,
    SpanLog* log, uint64_t request, std::vector<double>* prompt_bytes) {
  ScopedSpan turn(log, "core.layer_calls", request);
  UserQuery effective = query;
  {
    ScopedSpan span(log, "llm.rewrite", request, turn.id());
    MQA_ASSIGN_OR_RETURN(effective.text,
                         state->rewriter.RewriteChecked(query.text));
  }
  state->rewriter.ObserveTurn(query.text);
  mqa::RetrievalQuery rq;
  {
    ScopedSpan span(log, "encoder.encode", request, turn.id());
    MQA_ASSIGN_OR_RETURN(rq, c->executor()->EncodeUserQuery(effective));
  }
  mqa::RetrievalResult retrieved;
  {
    ScopedSpan span(log, "retrieval.retrieve", request, turn.id());
    MQA_ASSIGN_OR_RETURN(retrieved,
                         c->framework()->Retrieve(rq, c->config().search));
  }
  std::vector<mqa::RetrievedItem> items;
  {
    ScopedSpan span(log, "core.describe", request, turn.id());
    std::optional<uint32_t> preferred;
    if (query.selected_object.has_value()) {
      preferred = c->kb().at(*query.selected_object).concept_id;
    }
    for (const mqa::Neighbor& n : retrieved.neighbors) {
      const mqa::Object& obj = c->kb().at(n.id);
      mqa::RetrievedItem item{obj.id, mqa::DescribeObject(obj), n.distance};
      item.preferred = preferred.has_value() && obj.concept_id == *preferred;
      items.push_back(std::move(item));
    }
  }
  {
    ScopedSpan span(log, "llm.answer", request, turn.id());
    mqa::GenerationOutcome outcome;
    MQA_ASSIGN_OR_RETURN(std::string answer,
                         c->answer_generator()->GenerateTurn(
                             query.text, items, &state->prompt, &outcome));
    prompt_bytes->push_back(static_cast<double>(outcome.prompt.size()));
  }
  return items;
}

/// Cost of one span of this tracer, in ns, timed on empty spans.
double SpanCostNs() {
  constexpr size_t kSpans = 200000;
  SpanLog log;
  log.Reserve(kSpans);
  const int64_t t0 = NowNanos();
  for (size_t i = 0; i < kSpans; ++i) log.End(log.Begin("empty", i));
  return static_cast<double>(NowNanos() - t0) / kSpans;
}

/// Median over requests of the `whole` span minus the sum of the `parts`
/// spans of the same request. Per-request differences, so that a call
/// slowed by a preemption moves one sample rather than a mean.
Percentile PairedDifferenceUs(const SpanLog& log, const char* whole,
                              std::initializer_list<const char*> parts) {
  std::vector<std::map<uint64_t, double>> part_us;
  for (const char* part : parts) part_us.push_back(log.ByRequestUs(part));
  std::vector<double> diffs;
  for (const auto& [request, us] : log.ByRequestUs(whole)) {
    double rest = us;
    bool complete = true;
    for (const auto& by_request : part_us) {
      const auto it = by_request.find(request);
      complete = complete && it != by_request.end();
      if (it != by_request.end()) rest -= it->second;
    }
    if (complete) diffs.push_back(rest);
  }
  return PercentileOf(diffs, 0.5);
}

/// Layer metrics shared by every workload's traced run: medians of pass
/// 1's layer spans and of pass 2's whole turns.
void ReportLayerSpans(const SpanLog& log, const std::vector<double>& prompt,
                      const SearchTotals& search, const KernelTimes& kernels,
                      Report* report) {
  auto median = [&](const char* name) {
    return PercentileOf(log.DurationsUs(name), 0.5);
  };
  const Percentile retrieve = median("retrieval.retrieve");
  report->AddPercentile("core.turn_us", median("core.turn"), "us");
  report->AddPercentile(
      "core.overhead_us",
      PairedDifferenceUs(log, "core.turn",
                         {"llm.rewrite", "encoder.encode", "retrieval.retrieve",
                          "llm.answer"}),
      "us");
  report->AddPercentile("core.layer_calls_self_us",
                        PercentileOf(log.SelfTimesUs("core.layer_calls"), 0.5),
                        "us");
  report->AddPercentile("core.describe_us", median("core.describe"), "us");
  report->AddPercentile("llm.rewrite_us", median("llm.rewrite"), "us");
  report->AddPercentile("llm.answer_us", median("llm.answer"), "us");
  report->Add("llm.prompt_bytes", Mean(prompt), "bytes", prompt.size());
  report->AddPercentile("encoder.encode_us", median("encoder.encode"), "us");
  report->AddPercentile("retrieval.retrieve_us", retrieve, "us");
  const double comps = Ratio(static_cast<double>(search.dist_comps),
                             static_cast<double>(search.turns));
  report->Add("vector.exact_ns", kernels.exact_ns, "ns", kernels.calls);
  report->Add("vector.pruned_ns", kernels.pruned_ns, "ns", kernels.calls);
  report->Add("vector.kernel_share",
              Ratio(comps * kernels.exact_ns, retrieve.value * 1e3),
              "fraction");
}

/// The timed run's throughput and median latency at the speed of the
/// machine the benchmark was calibrated on: measured times divided by the
/// machine factor of the run's reference slices.
void ReportAtReference(double turns_per_s, double ops_per_s,
                       const Percentile& turn_p50, double factor,
                       uint64_t slices, Report* report) {
  report->Add("machine_factor", factor, "x", slices);
  report->Add("turns_per_s_ref", turns_per_s * factor, "turns/s");
  report->Add("ops_per_s_ref", ops_per_s * factor, "ops/s");
  report->Add("turn_p50_ms_ref", turn_p50.value / factor, "ms",
              turn_p50.count);
}

/// Exact per-turn search counters of the timed run.
void ReportSearchCounters(const DistanceTotals& dist,
                          const SearchTotals& search, Report* report) {
  report->Add("graph.hops_per_turn",
              Ratio(static_cast<double>(search.hops), search.turns), "count",
              search.turns);
  report->Add("graph.dist_comps_per_turn",
              Ratio(static_cast<double>(search.dist_comps), search.turns),
              "count", search.turns);
  report->Add("vector.pruned_frac", Ratio(dist.pruned, dist.calls()),
              "fraction", dist.calls());
  report->Add("vector.sketch_reject_frac", Ratio(dist.sketch, dist.calls()),
              "fraction", dist.calls());
  report->Add("vector.dims_per_call", Ratio(dist.dims, dist.calls()), "count",
              dist.calls());
}

/// `elapsed_ms` of the first StatusMonitor event of each build stage.
void ReportBuildStages(Coordinator* c, Report* report) {
  const std::vector<mqa::StatusEvent> events = c->monitor().history();
  auto stage_s = [&](mqa::ComponentStage stage) {
    for (const mqa::StatusEvent& e : events) {
      if (e.stage == stage) return e.elapsed_ms / 1e3;
    }
    return 0.0;
  };
  report->Add("storage.corpus_s",
              stage_s(mqa::ComponentStage::kDataPreprocessing), "s");
  report->Add("learning.represent_s",
              stage_s(mqa::ComponentStage::kVectorRepresentation), "s");
  report->Add("dag.index_s", stage_s(mqa::ComponentStage::kIndexConstruction),
              "s");
}

void PrintHeader(const RunOptions& o, const mqa::MqaConfig& config,
                 const std::string& wal_dir, Report* report) {
  report->Note("== perfbench %s seed=%llu ==\n", WorkloadName(o.workload),
               static_cast<unsigned long long>(o.seed));
  report->Note(
      "git sha %s | nproc %u | simd %s | workers %zu | sessions %zu | "
      "corpus %llu | modalities %u | seed %llu | wal %s (%s)\n",
      o.git_sha.c_str(), std::thread::hardware_concurrency(),
      mqa::SimdLevelName(mqa::ActiveSimdLevel()),
      o.workload == Workload::kChurn ? size_t{1} : config.serving.num_workers,
      o.workload == Workload::kChurn ? size_t{1} : kSessions,
      static_cast<unsigned long long>(config.corpus_size),
      2 + config.world.num_extra_modalities,
      static_cast<unsigned long long>(o.seed),
      wal_dir.empty() ? "none" : wal_dir.c_str(),
      wal_dir.empty() ? "-" : FsType(wal_dir).c_str());
}

// ---------------------------------------------------------------------------
// Server workloads: a saturated closed loop through Server.

/// Drives every session's script through the server, one outstanding turn
/// per session; each completion callback submits the session's next turn.
class ClosedLoop {
 public:
  /// With `slices`, each session's callback runs a reference slice after
  /// every kSliceEvery of its completions (only for one worker, where the
  /// slices and the turns share the one worker thread).
  ClosedLoop(mqa::Server* server, const std::vector<Script>* scripts,
             size_t k, size_t recall_stride, bool slices = false)
      : server_(server),
        scripts_(scripts),
        k_(k),
        recall_stride_(recall_stride),
        slices_(slices),
        sessions_(scripts->size()) {}

  /// Runs every script to completion. Returns when the last turn is done.
  void Run() {
    for (size_t s = 0; s < sessions_.size(); ++s) {
      sessions_[s].id = server_->OpenSession();
      sessions_[s].script = &(*scripts_)[s];
    }
    start_ns_ = NowNanos();
    for (Session& s : sessions_) Submit(&s);
    {
      mqa::MutexLock lock(&mu_);
      while (finished_ < sessions_.size()) cv_.Wait(&mu_);
      wall_s_ = static_cast<double>(end_ns_ - start_ns_) / 1e9;
    }
    for (Session& s : sessions_) (void)server_->CloseSession(s.id);
  }

  /// From the first submit to the last session's last completion.
  double wall_s() const { return wall_s_; }
  /// Durations of the reference slices.
  std::vector<double> slice_ns() const {
    std::vector<double> out;
    for (const Session& s : sessions_) {
      out.insert(out.end(), s.slice_ns.begin(), s.slice_ns.end());
    }
    return out;
  }

  /// Merged over sessions.
  std::vector<double> Latencies() const {
    std::vector<double> out;
    for (const Session& s : sessions_) {
      out.insert(out.end(), s.latency_ms.begin(), s.latency_ms.end());
    }
    return out;
  }
  uint64_t attempted() const { return Sum(&Session::attempted); }
  uint64_t failed() const { return Sum(&Session::failed); }
  uint64_t shed() const { return Sum(&Session::shed); }
  SearchTotals search() const {
    SearchTotals t;
    for (const Session& s : sessions_) {
      t.turns += s.search.turns;
      t.hops += s.search.hops;
      t.dist_comps += s.search.dist_comps;
    }
    return t;
  }
  std::vector<std::string> failures() const {
    std::vector<std::string> out;
    for (const Session& s : sessions_) {
      if (!s.first_failure.empty()) out.push_back(s.first_failure);
    }
    return out;
  }
  std::vector<RecallSample> recall_samples() const {
    std::vector<RecallSample> out;
    for (const Session& s : sessions_) {
      out.insert(out.end(), s.recall.begin(), s.recall.end());
    }
    return out;
  }

 private:
  // Each session has at most one turn in flight, so its fields are only
  // touched by one thread at a time; the server's queue orders them.
  struct Session {
    uint64_t id = 0;
    const Script* script = nullptr;
    size_t next = 0;  ///< dialogue index
    int round = 0;
    uint64_t selected = 0;
    int64_t submit_ns = 0;
    std::vector<double> latency_ms;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t shed = 0;
    std::vector<double> slice_ns;
    SearchTotals search;
    std::string first_failure;
    std::vector<RecallSample> recall;
  };

  uint64_t Sum(uint64_t Session::*field) const {
    uint64_t total = 0;
    for (const Session& s : sessions_) total += s.*field;
    return total;
  }

  void Fail(Session* s, const std::string& why) {
    ++s->failed;
    if (s->first_failure.empty()) s->first_failure = why;
  }

  void Finish() {
    const int64_t now = NowNanos();
    mqa::MutexLock lock(&mu_);
    end_ns_ = std::max(end_ns_, now);
    ++finished_;
    cv_.NotifyAll();  // under the lock: the waiter may destroy us after
  }

  void Submit(Session* s) {
    const Dialogue& d = (*s->script)[s->next];
    UserQuery query = s->round == 0 ? d.first : d.second;
    ++s->attempted;
    s->submit_ns = NowNanos();
    const mqa::Status st = server_->Submit(
        s->id, std::move(query),
        [this, s](mqa::Result<AnswerTurn> r) { OnDone(s, std::move(r)); });
    if (!st.ok()) {
      ++s->shed;
      Fail(s, "turn shed: " + st.ToString());
      Finish();
    }
  }

  void OnDone(Session* s, mqa::Result<AnswerTurn> r) {
    const int64_t now = NowNanos();
    s->latency_ms.push_back(static_cast<double>(now - s->submit_ns) / 1e6);
    if (slices_ && s->latency_ms.size() % kSliceEvery == 0) {
      s->slice_ns.push_back(static_cast<double>(ReferenceSliceNs()));
    }
    const Dialogue& d = (*s->script)[s->next];
    const std::string why = CheckTurn(r, k_);
    const bool ok = why.empty();
    if (ok) {
      s->search.Add(*r);
      const size_t turn_index = s->next * 2 + s->round;
      if (turn_index % recall_stride_ == 0) {
        s->recall.push_back(
            MakeRecallSample(d, s->round, s->selected, r->items));
      }
    } else {
      Fail(s, why);
    }
    if (s->round == 0 && ok) {
      s->selected = r->items[d.select_rank].id;
      const mqa::Status st = server_->Select(s->id, d.select_rank);
      if (st.ok()) {
        s->round = 1;
        Submit(s);
        return;
      }
      Fail(s, "select failed: " + st.ToString());
    }
    const mqa::Status st = server_->ResetSession(s->id);
    if (!st.ok()) Fail(s, "reset failed: " + st.ToString());
    s->round = 0;
    if (++s->next == s->script->size()) {
      Finish();
      return;
    }
    Submit(s);
  }

  mqa::Server* const server_;
  const std::vector<Script>* const scripts_;
  const size_t k_;
  const size_t recall_stride_;
  const bool slices_;
  std::vector<Session> sessions_;
  int64_t start_ns_ = 0;
  double wall_s_ = 0.0;
  mqa::Mutex mu_;
  mqa::CondVar cv_;
  size_t finished_ MQA_GUARDED_BY(mu_) = 0;
  int64_t end_ns_ MQA_GUARDED_BY(mu_) = 0;
};

/// The server-side counters of one closed loop, as deltas over it.
struct LoopWindow {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< of the whole process
  uint64_t batch_items = 0;
  uint64_t batches = 0;
  uint64_t server_failed = 0;
  mqa::HistogramSnapshot queue_wait;
  mqa::HistogramSnapshot search_wait;
  DistanceTotals dist;
};

/// Runs `loop` through `server` and measures it.
LoopWindow RunMeasured(mqa::Server* server, ClosedLoop* loop) {
  mqa::MetricsRegistry& registry = mqa::MetricsRegistry::Global();
  registry.GetHistogram("server/queue_wait_ms")->Reset();
  registry.GetHistogram("server/search_queue_wait_ms")->Reset();
  const DistanceTotals dist0 = DistanceTotals::Of(server->coordinator());
  const mqa::BatcherStats batch0 = server->search_batcher()->stats();
  const uint64_t failed0 = server->stats().failed;
  const double cpu0 = ProcessCpuSeconds();
  loop->Run();
  LoopWindow w;
  w.cpu_s = ProcessCpuSeconds() - cpu0;
  w.wall_s = loop->wall_s();
  w.dist.AddDelta(dist0, DistanceTotals::Of(server->coordinator()));
  const mqa::BatcherStats batch1 = server->search_batcher()->stats();
  w.batch_items = batch1.items - batch0.items;
  w.batches = batch1.batches - batch0.batches;
  w.server_failed = server->stats().failed - failed0;
  w.queue_wait = registry.HistogramSnapshotOf("server/queue_wait_ms");
  w.search_wait = registry.HistogramSnapshotOf("server/search_queue_wait_ms");
  return w;
}

void ReportServerLayer(const std::string& prefix, const LoopWindow& w,
                       size_t workers, uint64_t turns, Report* report) {
  report->Add(prefix + "busy_frac", Ratio(w.cpu_s, workers * w.wall_s),
              "fraction");
  report->Add(prefix + "cpu_us_per_turn", Ratio(w.cpu_s * 1e6, turns), "us",
              turns);
  report->Add(prefix + "batch_occupancy",
              Ratio(static_cast<double>(w.batch_items), w.batches),
              "items/batch", w.batches);
  report->Add(prefix + "queue_wait_ms", w.queue_wait.Percentile(50), "ms",
              w.queue_wait.count);
  report->Add(prefix + "search_wait_ms", w.search_wait.Percentile(50), "ms",
              w.search_wait.count);
}

mqa::Status RunServing(const RunOptions& o, const mqa::World& world,
                       RunResult* result, Report* report) {
  const mqa::MqaConfig config = ConfigFor(o.workload);
  const size_t k = config.search.k;
  const bool multimodal = o.workload == Workload::kMultimodal;

  // --- Set-up: Server::Create until the first turn is answered. ---
  mqa::Rng setup_rng(0);
  UserQuery setup_query;
  setup_query.text = world.MakeTextQuery(0, &setup_rng).text;
  std::vector<double> setup_s;
  std::unique_ptr<mqa::Server> server;
  for (size_t i = 0; i < std::max<size_t>(1, o.setups); ++i) {
    server.reset();
    const int64_t t0 = NowNanos();
    MQA_ASSIGN_OR_RETURN(server, mqa::Server::Create(config));
    const uint64_t session = server->OpenSession();
    MQA_RETURN_NOT_OK(server->Ask(session, setup_query).status());
    setup_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
    MQA_RETURN_NOT_OK(server->CloseSession(session));
  }
  PrintHeader(o, config, "", report);
  Coordinator* coordinator = server->coordinator();

  const double rate = multimodal ? kMultimodalTurnsPerSecond : kTurnsPerSecond;
  const size_t dialogues = std::max<size_t>(
      1, static_cast<size_t>(std::llround(o.seconds * rate / (kSessions * 2))));
  const std::vector<Script> warm = MakeScripts(
      world, WarmupSeed(o.seed), kSessions, std::max<size_t>(8, dialogues / 20),
      multimodal, k);
  const std::vector<Script> scripts =
      MakeScripts(world, o.seed, kSessions, dialogues, multimodal, k);
  const size_t turns = kSessions * dialogues * 2;
  const size_t recall_stride = std::max<size_t>(1, turns / kRecallTurns);

  ClosedLoop warmup(server.get(), &warm, k, std::numeric_limits<size_t>::max());
  warmup.Run();

  // --- The timed run; layer counters are deltas over it. ---
  ClosedLoop loop(server.get(), &scripts, k, recall_stride, /*slices=*/true);
  const LoopWindow window = RunMeasured(server.get(), &loop);
  const double rss_mb = PeakRssMb();
  const std::vector<double> latencies = loop.Latencies();

  // --- Output checks and recall, outside the timed run. ---
  for (const std::string& why : loop.failures()) report->Fail(why);
  if (window.server_failed != loop.failed() - loop.shed()) {
    report->Fail("server counted " + std::to_string(window.server_failed) +
                 " failed turns, the benchmark " +
                 std::to_string(loop.failed() - loop.shed()));
  }
  std::vector<double> recalls;
  std::vector<KernelQuery> kernel_queries;
  for (const RecallSample& sample : loop.recall_samples()) {
    KernelQuery kq;
    MQA_ASSIGN_OR_RETURN(
        double recall,
        RecallOf(coordinator, sample, k,
                 kernel_queries.size() < kKernelQueries ? &kq : nullptr));
    recalls.push_back(recall);
    if (!kq.flat.empty()) kernel_queries.push_back(std::move(kq));
  }
  const SearchTotals search = loop.search();
  result->attempted = loop.attempted();
  result->failed = loop.failed();
  report->Note(
      "ops: turns attempted %llu failed %llu | sheds %llu | inserts 0 "
      "failed 0 | deletes 0 failed 0\n",
      static_cast<unsigned long long>(loop.attempted()),
      static_cast<unsigned long long>(loop.failed() - loop.shed()),
      static_cast<unsigned long long>(loop.shed()));
  const size_t completed = search.turns;
  // The slices ran on the one worker, between turns: take them out.
  const std::vector<double> slices = loop.slice_ns();
  double slices_s = 0.0;
  for (double ns : slices) slices_s += ns / 1e9;
  const double busy_s = window.wall_s - slices_s;
  report->Note("timed run: %zu turns in %.3f s (%.3f s without the "
               "reference slices)\n",
               completed, window.wall_s, busy_s);

  const double turns_per_s = Ratio(static_cast<double>(completed), busy_s);
  const Percentile turn_p50 = PercentileOf(latencies, 0.50);
  report->Note("end to end:\n");
  report->AddPercentile("setup_s", PercentileOf(setup_s, 0.5), "s");
  report->Add("rss_mb", rss_mb, "MiB");
  report->Add("turns_per_s", turns_per_s, "turns/s", completed);
  report->Add("ops_per_s", turns_per_s, "ops/s", completed);
  report->AddPercentile("turn_p50_ms", turn_p50, "ms");
  report->AddPercentile("turn_p99_ms", PercentileOf(latencies, 0.99), "ms");
  report->Add("recall_at_10", Mean(recalls), "fraction", recalls.size());
  ReportAtReference(turns_per_s, turns_per_s, turn_p50,
                    MachineFactor(slices), slices.size(), report);

  report->Note("per layer (timed run):\n");
  ReportServerLayer("server.", window, kWorkers, completed, report);
  ReportSearchCounters(window.dist, search, report);
  ReportBuildStages(coordinator, report);

  if (o.trace) {
    // --- Traced passes: single-threaded, over the first dialogues. ---
    SpanLog log;
    std::vector<double> prompt_bytes;
    std::vector<const Dialogue*> traced;
    for (size_t i = 0; i < dialogues && traced.size() * 2 < kTraceOps; ++i) {
      for (const Script& script : scripts) traced.push_back(&script[i]);
    }
    // The passes alternate in blocks, so a slow phase of the machine lands
    // on all of them alike.
    const uint64_t session = server->OpenSession();
    for (size_t lo = 0; lo < traced.size(); lo += kTraceBlock) {
      const size_t hi = std::min(traced.size(), lo + kTraceBlock);
      // Pass 1: each turn's layer calls.
      for (size_t i = lo; i < hi; ++i) {
        Coordinator::DialogueState state;
        MQA_ASSIGN_OR_RETURN(
            std::vector<mqa::RetrievedItem> items,
            LayerCallsTurn(coordinator, traced[i]->first, &state, &log, 2 * i,
                           &prompt_bytes));
        UserQuery second = traced[i]->second;
        second.selected_object = items[traced[i]->select_rank].id;
        MQA_RETURN_NOT_OK(LayerCallsTurn(coordinator, second, &state, &log,
                                         2 * i + 1, &prompt_bytes)
                              .status());
      }
      // Pass 2: each turn whole through AskWithState, then as a lone turn
      // through the server. (Interleaving the two per turn slows every
      // AskWithState that follows a wait for a worker by about 100 us.)
      for (size_t i = lo; i < hi; ++i) {
        Coordinator::DialogueState state;
        mqa::Result<AnswerTurn> first = mqa::Status::Internal("not run");
        {
          ScopedSpan span(&log, "core.turn", 2 * i);
          first = coordinator->AskWithState(traced[i]->first, &state);
        }
        MQA_RETURN_NOT_OK(first.status());
        UserQuery second = traced[i]->second;
        second.selected_object = first->items[traced[i]->select_rank].id;
        mqa::Result<AnswerTurn> reply = mqa::Status::Internal("not run");
        {
          ScopedSpan span(&log, "core.turn", 2 * i + 1);
          reply = coordinator->AskWithState(second, &state);
        }
        MQA_RETURN_NOT_OK(reply.status());
      }
      for (size_t i = lo; i < hi; ++i) {
        {
          ScopedSpan span(&log, "server.turn", 2 * i);
          MQA_RETURN_NOT_OK(server->Ask(session, traced[i]->first).status());
        }
        MQA_RETURN_NOT_OK(server->Select(session, traced[i]->select_rank));
        {
          ScopedSpan span(&log, "server.turn", 2 * i + 1);
          MQA_RETURN_NOT_OK(server->Ask(session, traced[i]->second).status());
        }
        MQA_RETURN_NOT_OK(server->ResetSession(session));
      }
    }
    MQA_ASSIGN_OR_RETURN(auto kernels,
                         TimeKernels(coordinator, kernel_queries, o.seed));
    report->Note("per layer (traced run, %zu dialogues per pass):\n",
                 traced.size());
    ReportLayerSpans(log, prompt_bytes, search, kernels, report);
    report->AddPercentile("server.overhead_us",
                          PairedDifferenceUs(log, "server.turn", {"core.turn"}),
                          "us");
    const double span_ns = SpanCostNs();
    report->Add("trace.span_ns", span_ns, "ns");
    report->Note("tracing cost: %.0f ns per span, 6 spans per pass-1 turn\n",
                 span_ns);
    const std::string path = o.work_dir + "/spans-" +
                             WorkloadName(o.workload) + "-seed" +
                             std::to_string(o.seed) + ".jsonl";
    if (!log.WriteJsonLines(path)) report->Fail("cannot write " + path);

    // Two-worker probe, printed and not compared (its runs split into two
    // modes; see NOTES.md): the same loop over a quarter of the work on a
    // second server with two workers, so server concurrency stays visible.
    mqa::MqaConfig two = config;
    two.serving.num_workers = 2;
    server.reset();
    MQA_ASSIGN_OR_RETURN(server, mqa::Server::Create(two));
    ClosedLoop(server.get(), &warm, k, std::numeric_limits<size_t>::max())
        .Run();
    const std::vector<Script> quarter = MakeScripts(
        world, o.seed, kSessions, std::max<size_t>(1, dialogues / 4),
        multimodal, k);
    ClosedLoop probe(server.get(), &quarter, k,
                     std::numeric_limits<size_t>::max());
    const LoopWindow probed = RunMeasured(server.get(), &probe);
    const uint64_t probe_turns = probe.search().turns;
    report->Note("two-worker probe:\n");
    report->Add("server.two_workers.turns_per_s",
                Ratio(static_cast<double>(probe_turns), probed.wall_s),
                "turns/s", probe_turns);
    ReportServerLayer("server.two_workers.", probed, 2, probe_turns, report);
    for (const std::string& why : probe.failures()) report->Fail(why);
  }
  server->Shutdown();
  return mqa::Status::OK();
}

// ---------------------------------------------------------------------------
// Churn: one caller writing beside reads through DurableSystem.

/// An acked insert tracked for the findability check. Its id follows
/// compaction: ids re-densify in order, so an id drops by the number of
/// tombstones below it.
struct TrackedInsert {
  uint64_t id = 0;
  const mqa::Object* object = nullptr;
  bool live = true;
};

/// How ChurnPass issues reads and writes.
enum class ChurnMode {
  kTimed,       ///< whole turns, each program call timed
  kLayerCalls,  ///< traced pass 1: layer calls, plus a side WAL append
  kWhole,       ///< traced pass 2: whole turns
};

struct ChurnStats {
  std::vector<double> turn_ms;
  std::vector<double> insert_ms;
  std::vector<double> delete_ms;     ///< deletes that did not compact
  std::vector<double> compact_ms;    ///< deletes that compacted
  double window_s = 0.0;             ///< sum of the timed program calls
  std::vector<double> slice_ns;      ///< reference slices, between ops
  uint64_t turns = 0, turns_failed = 0;
  uint64_t inserts = 0, inserts_failed = 0;
  uint64_t deletes = 0, deletes_failed = 0;
  uint64_t compactions = 0;
  SearchTotals search;
  DistanceTotals dist;
  std::vector<double> recalls;
  std::vector<KernelQuery> kernel_queries;
  std::vector<TrackedInsert> tracked;
  std::vector<double> prompt_bytes;
};

/// Runs ops [begin, end) in order against `sys`. Reads are two-round
/// dialogues with their own DialogueState. In kTimed mode (one call over
/// the whole stream) every program call is timed and outputs are checked;
/// the traced modes record spans into `log`.
mqa::Status ChurnPass(mqa::DurableSystem* sys, const std::vector<ChurnOp>& ops,
                      size_t begin, size_t end, ChurnMode mode, size_t k,
                      uint64_t seed, size_t recall_stride,
                      mqa::WalWriter* side_wal, SpanLog* log,
                      ChurnStats* out, Report* report) {
  Coordinator* c = sys->coordinator();
  mqa::Rng track_rng(seed);
  size_t read_index = 0;
  std::vector<uint64_t> deleted_since_compaction;
  auto check_turn = [&](const mqa::Result<AnswerTurn>& r) {
    std::string why = CheckTurn(r, k);
    if (why.empty()) {
      for (const mqa::RetrievedItem& item : r->items) {
        if (c->kb().IsDeleted(item.id)) {
          why = "turn returned tombstoned id " + std::to_string(item.id);
        }
      }
    }
    if (!why.empty()) report->Fail(why);
    return why.empty();
  };
  auto ask = [&](const UserQuery& q, Coordinator::DialogueState* state,
                 uint64_t request) -> mqa::Result<AnswerTurn> {
    if (mode == ChurnMode::kWhole) {
      ScopedSpan span(log, "core.turn", request);
      return c->AskWithState(q, state);
    }
    const int64_t t0 = NowNanos();
    mqa::Result<AnswerTurn> r = c->AskWithState(q, state);
    const int64_t t1 = NowNanos();
    out->turn_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    out->window_s += static_cast<double>(t1 - t0) / 1e9;
    return r;
  };

  for (size_t i = begin; i < end; ++i) {
    const ChurnOp& op = ops[i];
    if (mode == ChurnMode::kTimed && i % kSliceEvery == 0) {
      out->slice_ns.push_back(static_cast<double>(ReferenceSliceNs()));
    }
    switch (op.kind) {
      case OpKind::kRead: {
        Coordinator::DialogueState state;
        if (mode == ChurnMode::kLayerCalls) {
          MQA_ASSIGN_OR_RETURN(
              std::vector<mqa::RetrievedItem> items,
              LayerCallsTurn(c, op.read.first, &state, log, 2 * i,
                             &out->prompt_bytes));
          UserQuery second = op.read.second;
          second.selected_object = items[op.read.select_rank].id;
          MQA_RETURN_NOT_OK(LayerCallsTurn(c, second, &state, log, 2 * i + 1,
                                           &out->prompt_bytes)
                                .status());
          break;
        }
        const DistanceTotals before = DistanceTotals::Of(c);
        out->turns += 2;
        mqa::Result<AnswerTurn> first = ask(op.read.first, &state, 2 * i);
        if (!check_turn(first)) {
          out->turns_failed += 2;  // round 2 cannot run without round 1
          break;
        }
        UserQuery second = op.read.second;
        second.selected_object = first->items[op.read.select_rank].id;
        mqa::Result<AnswerTurn> reply = ask(second, &state, 2 * i + 1);
        out->dist.AddDelta(before, DistanceTotals::Of(c));
        out->search.Add(*first);
        if (!check_turn(reply)) {
          ++out->turns_failed;
          break;
        }
        out->search.Add(*reply);
        if (mode == ChurnMode::kTimed && read_index++ % recall_stride == 0) {
          for (int round = 0; round < 2; ++round) {
            const RecallSample sample = MakeRecallSample(
                op.read, round, *second.selected_object,
                (round == 0 ? first : reply)->items);
            KernelQuery kq;
            MQA_ASSIGN_OR_RETURN(
                double recall,
                RecallOf(c, sample, k,
                         out->kernel_queries.size() < kKernelQueries ? &kq
                                                                     : nullptr));
            out->recalls.push_back(recall);
            if (!kq.flat.empty()) out->kernel_queries.push_back(std::move(kq));
          }
        }
        break;
      }
      case OpKind::kInsert: {
        mqa::Object object = op.object;
        ++out->inserts;
        if (mode == ChurnMode::kLayerCalls) {
          std::string payload;
          mqa::SerializeObject(op.object, &payload);
          ScopedSpan span(log, "storage.wal_append", i);
          MQA_RETURN_NOT_OK(
              side_wal->Append(mqa::WalRecordType::kInsert, payload)
                  .status());
        }
        const int64_t t0 = NowNanos();
        mqa::Result<uint64_t> id = mqa::Status::Internal("not run");
        {
          const bool traced = mode == ChurnMode::kLayerCalls;
          const uint32_t span = traced ? log->Begin("core.ingest", i) : 0;
          id = sys->Ingest(std::move(object));
          if (traced) log->End(span);
        }
        const int64_t t1 = NowNanos();
        if (!id.ok()) {
          ++out->inserts_failed;
          report->Fail("insert failed: " + id.status().ToString());
          break;
        }
        if (mode != ChurnMode::kTimed) break;
        out->insert_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
        out->window_s += static_cast<double>(t1 - t0) / 1e9;
        if (track_rng.NextUint64(kTrackInsertOneIn) == 0) {
          out->tracked.push_back({*id, &op.object, true});
        }
        break;
      }
      case OpKind::kDelete: {
        const uint64_t id = PickLiveId(c->kb(), op.pick);
        const uint64_t compactions = c->compactions();
        ++out->deletes;
        const int64_t t0 = NowNanos();
        mqa::Status st;
        {
          const bool traced = mode == ChurnMode::kLayerCalls;
          const uint32_t span = traced ? log->Begin("core.remove", i) : 0;
          st = sys->Remove(id);
          if (traced) log->End(span);
        }
        const int64_t t1 = NowNanos();
        if (!st.ok()) {
          ++out->deletes_failed;
          report->Fail("delete failed: " + st.ToString());
          break;
        }
        const bool compacted = c->compactions() > compactions;
        if (mode != ChurnMode::kTimed) break;
        const double ms = static_cast<double>(t1 - t0) / 1e6;
        (compacted ? out->compact_ms : out->delete_ms).push_back(ms);
        out->window_s += ms / 1e3;
        for (TrackedInsert& t : out->tracked) {
          if (t.live && t.id == id) t.live = false;
        }
        deleted_since_compaction.push_back(id);
        if (compacted) {
          ++out->compactions;
          std::sort(deleted_since_compaction.begin(),
                    deleted_since_compaction.end());
          for (TrackedInsert& t : out->tracked) {
            if (!t.live) continue;
            t.id -= std::lower_bound(deleted_since_compaction.begin(),
                                     deleted_since_compaction.end(), t.id) -
                    deleted_since_compaction.begin();
          }
          deleted_since_compaction.clear();
        }
        break;
      }
    }
  }
  return mqa::Status::OK();
}

/// After the timed run: every tracked insert still live is found by a
/// query built from its own payloads (text + image).
void CheckTrackedInserts(mqa::DurableSystem* sys,
                         const std::vector<TrackedInsert>& tracked, size_t k,
                         Report* report) {
  Coordinator* c = sys->coordinator();
  size_t checked = 0;
  for (const TrackedInsert& t : tracked) {
    if (!t.live) continue;
    ++checked;
    if (t.id >= c->kb().size() ||
        c->kb().at(t.id).modalities[1].text != t.object->modalities[1].text) {
      report->Fail("tracked insert lost its id " + std::to_string(t.id));
      continue;
    }
    UserQuery q;
    q.text = t.object->modalities[1].text;
    q.uploaded_image = t.object->modalities[0];
    Coordinator::DialogueState state;
    mqa::Result<AnswerTurn> r = c->AskWithState(q, &state);
    if (!CheckTurn(r, k).empty()) {
      report->Fail("findability turn failed: " + CheckTurn(r, k));
      continue;
    }
    bool found = false;
    for (const mqa::RetrievedItem& item : r->items) found |= item.id == t.id;
    if (!found) {
      report->Fail("acked insert " + std::to_string(t.id) +
                   " missing from the top-k of its own payloads");
    }
  }
  report->Note("findability: %zu tracked live inserts checked\n", checked);
}

mqa::Result<std::unique_ptr<mqa::DurableSystem>> OpenFresh(
    const mqa::MqaConfig& config, const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  mqa::DurabilityOptions durability;
  durability.wal_sync_every = kWalSyncEvery;
  return mqa::DurableSystem::Open(config, dir, durability);
}

/// Read-only warm-up: dialogues from the warm-up stream.
mqa::Status WarmChurn(mqa::DurableSystem* sys, const std::vector<ChurnOp>& warm) {
  for (const ChurnOp& op : warm) {
    if (op.kind != OpKind::kRead) continue;
    Coordinator::DialogueState state;
    MQA_ASSIGN_OR_RETURN(AnswerTurn first,
                         sys->coordinator()->AskWithState(op.read.first, &state));
    if (first.items.size() <= op.read.select_rank) continue;
    UserQuery second = op.read.second;
    second.selected_object = first.items[op.read.select_rank].id;
    MQA_RETURN_NOT_OK(sys->coordinator()->AskWithState(second, &state).status());
  }
  return mqa::Status::OK();
}

mqa::Status RunChurn(const RunOptions& o, const mqa::World& world,
                     RunResult* result, Report* report) {
  const mqa::MqaConfig config = ConfigFor(o.workload);
  const size_t k = config.search.k;
  const std::string wal_root =
      o.work_dir + "/wal-" + std::to_string(::getpid());

  // --- Set-up: DurableSystem::Open on a fresh directory until the first
  // turn is answered. ---
  mqa::Rng setup_rng(0);
  UserQuery setup_query;
  setup_query.text = world.MakeTextQuery(0, &setup_rng).text;
  std::vector<double> setup_s;
  std::unique_ptr<mqa::DurableSystem> sys;
  for (size_t i = 0; i < std::max<size_t>(1, o.setups); ++i) {
    sys.reset();
    const std::string dir = wal_root + "/setup-" + std::to_string(i);
    const int64_t t0 = NowNanos();
    MQA_ASSIGN_OR_RETURN(sys, OpenFresh(config, dir));
    Coordinator::DialogueState state;
    MQA_RETURN_NOT_OK(
        sys->coordinator()->AskWithState(setup_query, &state).status());
    setup_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
  }
  PrintHeader(o, config, wal_root, report);

  const size_t count = std::max<size_t>(
      20, static_cast<size_t>(std::llround(o.seconds * kChurnOpsPerSecond)));
  const std::vector<ChurnOp> ops = MakeChurnOps(world, o.seed, count, k);
  const std::vector<ChurnOp> warm =
      MakeChurnOps(world, WarmupSeed(o.seed), std::max<size_t>(200, count / 20), k);
  const size_t reads = static_cast<size_t>(count * kReadShare);
  // Two turns per read op.
  const size_t recall_stride = std::max<size_t>(1, reads * 2 / kRecallTurns);
  MQA_RETURN_NOT_OK(WarmChurn(sys.get(), warm));

  // --- The timed run. ---
  ChurnStats stats;
  const double cpu0 = ProcessCpuSeconds();
  MQA_RETURN_NOT_OK(ChurnPass(sys.get(), ops, 0, ops.size(), ChurnMode::kTimed,
                              k, o.seed, recall_stride, nullptr, nullptr,
                              &stats, report));
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const double rss_mb = PeakRssMb();
  CheckTrackedInserts(sys.get(), stats.tracked, k, report);

  result->attempted = stats.turns + stats.inserts + stats.deletes;
  result->failed = stats.turns_failed + stats.inserts_failed + stats.deletes_failed;
  report->Note(
      "ops: turns attempted %llu failed %llu | sheds 0 | inserts %llu failed "
      "%llu | deletes %llu failed %llu (%llu compacted)\n",
      static_cast<unsigned long long>(stats.turns),
      static_cast<unsigned long long>(stats.turns_failed),
      static_cast<unsigned long long>(stats.inserts),
      static_cast<unsigned long long>(stats.inserts_failed),
      static_cast<unsigned long long>(stats.deletes),
      static_cast<unsigned long long>(stats.deletes_failed),
      static_cast<unsigned long long>(stats.compactions));
  report->Note("timed run: %zu ops in %.3f s of program calls (%.3f CPU-s); "
               "live corpus %llu\n",
               ops.size(), stats.window_s, cpu_s,
               static_cast<unsigned long long>(
                   sys->coordinator()->kb().live_size()));

  const uint64_t done = stats.turns - stats.turns_failed +
                        stats.inserts - stats.inserts_failed +
                        stats.deletes - stats.deletes_failed;
  report->Note("end to end:\n");
  report->AddPercentile("setup_s", PercentileOf(setup_s, 0.5), "s");
  report->Add("rss_mb", rss_mb, "MiB");
  const double turns_per_s =
      Ratio(stats.turns - stats.turns_failed, stats.window_s);
  const double ops_per_s = Ratio(done, stats.window_s);
  const Percentile turn_p50 = PercentileOf(stats.turn_ms, 0.50);
  report->Add("turns_per_s", turns_per_s, "turns/s", stats.turns);
  report->Add("ops_per_s", ops_per_s, "ops/s", done);
  report->AddPercentile("turn_p50_ms", turn_p50, "ms");
  report->AddPercentile("turn_p99_ms", PercentileOf(stats.turn_ms, 0.99), "ms");
  report->AddPercentile("insert_ack_p50_ms", PercentileOf(stats.insert_ms, 0.50),
                        "ms");
  report->AddPercentile("insert_ack_p99_ms", PercentileOf(stats.insert_ms, 0.99),
                        "ms");
  report->Add("recall_at_10", Mean(stats.recalls), "fraction",
              stats.recalls.size());
  ReportAtReference(turns_per_s, ops_per_s, turn_p50,
                    MachineFactor(stats.slice_ns), stats.slice_ns.size(),
                    report);
  report->Note("per layer (timed run):\n");
  report->AddPercentile("core.delete_ack_us",
                        [&] {
                          Percentile p = PercentileOf(stats.delete_ms, 0.5);
                          p.value *= 1e3;
                          return p;
                        }(),
                        "us");
  report->Add("core.compactions", static_cast<double>(stats.compactions),
              "count");
  report->AddPercentile("core.compact_ms", PercentileOf(stats.compact_ms, 0.5),
                        "ms");
  ReportSearchCounters(stats.dist, stats.search, report);
  ReportBuildStages(sys->coordinator(), report);

  if (o.trace) {
    // --- Traced passes: each from a fresh system over the same ops, after
    // the same warm-up, alternating in blocks so a slow phase of the
    // machine lands on both alike. ---
    const size_t traced = std::min(ops.size(), kTraceOps);
    SpanLog log;
    ChurnStats pass1;
    ChurnStats pass2;
    sys.reset();
    std::unique_ptr<mqa::DurableSystem> sys2;
    MQA_ASSIGN_OR_RETURN(sys, OpenFresh(config, wal_root + "/trace-1"));
    MQA_ASSIGN_OR_RETURN(sys2, OpenFresh(config, wal_root + "/trace-2"));
    MQA_RETURN_NOT_OK(WarmChurn(sys.get(), warm));
    MQA_RETURN_NOT_OK(WarmChurn(sys2.get(), warm));
    mqa::WalWriterOptions wal_options;
    wal_options.sync_every = kWalSyncEvery;
    MQA_ASSIGN_OR_RETURN(
        std::unique_ptr<mqa::WalWriter> side_wal,
        mqa::WalWriter::Open(wal_root + "/side-wal.log", wal_options));
    for (size_t lo = 0; lo < traced; lo += kTraceBlock) {
      const size_t hi = std::min(traced, lo + kTraceBlock);
      MQA_RETURN_NOT_OK(ChurnPass(sys.get(), ops, lo, hi,
                                  ChurnMode::kLayerCalls, k, o.seed,
                                  recall_stride, side_wal.get(), &log, &pass1,
                                  report));
      MQA_RETURN_NOT_OK(ChurnPass(sys2.get(), ops, lo, hi, ChurnMode::kWhole,
                                  k, o.seed, recall_stride, nullptr, &log,
                                  &pass2, report));
    }
    MQA_ASSIGN_OR_RETURN(auto kernels, TimeKernels(sys->coordinator(),
                                                   stats.kernel_queries, o.seed));
    report->Note("per layer (traced run, first %zu ops per pass):\n", traced);
    ReportLayerSpans(log, pass1.prompt_bytes, stats.search, kernels, report);
    report->AddPercentile(
        "storage.wal_append_us",
        PercentileOf(log.DurationsUs("storage.wal_append"), 0.5), "us");
    report->AddPercentile(
        "core.insert_apply_us",
        PairedDifferenceUs(log, "core.ingest", {"storage.wal_append"}), "us");
    const double span_ns = SpanCostNs();
    report->Add("trace.span_ns", span_ns, "ns");
    const std::string path = o.work_dir + "/spans-churn-seed" +
                             std::to_string(o.seed) + ".jsonl";
    if (!log.WriteJsonLines(path)) report->Fail("cannot write " + path);
  }
  sys.reset();
  std::error_code ec;
  std::filesystem::remove_all(wal_root, ec);
  return mqa::Status::OK();
}

}  // namespace

const Metric* RunResult::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

mqa::Result<RunResult> RunWorkload(const RunOptions& options) {
  mqa::SetLogLevel(mqa::LogLevel::kWarning);
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    return mqa::Status::IoError("cannot create " + options.work_dir + ": " +
                                ec.message());
  }
  const mqa::MqaConfig config = ConfigFor(options.workload);
  MQA_ASSIGN_OR_RETURN(mqa::World world, mqa::World::Create(config.world));
  RunResult result;
  Report report(&result, options.verbose);
  const mqa::Status st =
      options.workload == Workload::kChurn
          ? RunChurn(options, world, &result, &report)
          : RunServing(options, world, &result, &report);
  MQA_RETURN_NOT_OK(st);
  if (report.failures() > 0) {
    report.Note("CHECKS FAILED: %llu (first: %s)\n",
                static_cast<unsigned long long>(report.failures()),
                result.check_failures.front().c_str());
  }
  return result;
}

}  // namespace perfbench
