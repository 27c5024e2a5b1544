// Serving-E10 (concurrent front end): open-loop latency of the
// multi-session server under steady load, behaviour under a burst that
// deliberately overruns the admission queue, and closed-loop throughput
// at saturation. Open-loop requests arrive on a Poisson schedule from a
// seeded RNG (arrivals never wait for completions, so queueing delay is
// measured honestly), fan out over concurrent sessions round-robin, and
// execute on the worker pool. Reported per open-loop scenario:
// completed/shed counts and latency percentiles (p50/p95/p99) of
// completed turns. The saturation scenario keeps one turn outstanding per
// session and reports turns/s at 1, 2 and 4 workers, plus the in-run
// ratio of 4 workers to 1. The JSON config records the machine's hardware
// thread count: with fewer than 4, four workers cannot run at once.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/sync.h"
#include "server/server.h"

namespace mqa {
namespace {

struct ScenarioResult {
  size_t requests = 0;
  size_t completed = 0;
  size_t shed = 0;
  size_t failed = 0;
  double wall_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const size_t idx =
      static_cast<size_t>(p * static_cast<double>(values->size() - 1) + 0.5);
  return (*values)[std::min(idx, values->size() - 1)];
}

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Drives `requests` turns through the server on an open-loop arrival
/// schedule at `rate_qps` (0 = back-to-back burst), spread round-robin
/// over `num_sessions` sessions.
ScenarioResult RunScenario(Server* server, size_t requests, double rate_qps,
                           size_t num_sessions, uint64_t seed) {
  ScenarioResult out;
  out.requests = requests;

  std::vector<uint64_t> sessions(num_sessions);
  for (size_t s = 0; s < num_sessions; ++s) {
    sessions[s] = server->OpenSession();
  }

  // Pre-generate the Poisson schedule so RNG cost is off the timed path;
  // arrivals are absolute offsets, so sleep jitter does not accumulate.
  Rng rng(seed);
  std::vector<int64_t> arrival_micros(requests, 0);
  int64_t t = 0;
  for (size_t i = 0; i < requests; ++i) {
    if (rate_qps > 0) {
      const double u = std::max(1e-12, 1.0 - rng.UniformDouble());
      t += static_cast<int64_t>(-std::log(u) / rate_qps * 1e6);
    }
    arrival_micros[i] = t;
  }

  const uint32_t num_concepts = server->coordinator()->world().num_concepts();

  // Completion records are preallocated; each callback touches only its
  // own slot plus the shared counters.
  std::vector<double> latency_ms(requests, -1.0);
  std::vector<int64_t> submitted_micros(requests, 0);
  std::atomic<size_t> completed{0};
  std::atomic<size_t> failed{0};
  std::atomic<size_t> outstanding{0};

  const int64_t start = NowMicros();
  size_t shed = 0;
  for (size_t i = 0; i < requests; ++i) {
    // Open loop: wait until this request's scheduled arrival, regardless
    // of how the previous ones are doing.
    const int64_t due = start + arrival_micros[i];
    int64_t now = NowMicros();
    if (now < due) {
      SystemClock()->SleepForMicros(due - now);
      now = NowMicros();
    }
    UserQuery query;
    query.text = "show me " + server->coordinator()->world().ConceptName(
                                  static_cast<uint32_t>(i) % num_concepts);
    submitted_micros[i] = now;
    outstanding.fetch_add(1);
    Status admitted = server->Submit(
        sessions[i % num_sessions], std::move(query),
        [i, &latency_ms, &submitted_micros, &completed, &failed,
         &outstanding](Result<AnswerTurn> turn) {
          if (turn.ok()) {
            latency_ms[i] =
                static_cast<double>(NowMicros() - submitted_micros[i]) / 1e3;
            completed.fetch_add(1);
          } else {
            failed.fetch_add(1);
          }
          outstanding.fetch_sub(1);
        });
    if (!admitted.ok()) {
      ++shed;
      outstanding.fetch_sub(1);
    }
  }
  while (outstanding.load() > 0) std::this_thread::yield();
  out.wall_ms = static_cast<double>(NowMicros() - start) / 1e3;

  out.completed = completed.load();
  out.failed = failed.load();
  out.shed = shed;
  std::vector<double> completed_latencies;
  completed_latencies.reserve(out.completed);
  for (double l : latency_ms) {
    if (l >= 0) completed_latencies.push_back(l);
  }
  out.p50_ms = Percentile(&completed_latencies, 0.50);
  out.p95_ms = Percentile(&completed_latencies, 0.95);
  out.p99_ms = Percentile(&completed_latencies, 0.99);

  for (uint64_t session : sessions) {
    (void)server->CloseSession(session);
  }
  return out;
}

void AddScenarioMetrics(bench::JsonReporter* report, const std::string& name,
                        const ScenarioResult& r) {
  report->AddMetric(name + "/requests", static_cast<double>(r.requests));
  report->AddMetric(name + "/completed", static_cast<double>(r.completed));
  report->AddMetric(name + "/shed", static_cast<double>(r.shed));
  report->AddMetric(name + "/failed", static_cast<double>(r.failed));
  report->AddMetric(name + "/p50_ms", r.p50_ms);
  report->AddMetric(name + "/p95_ms", r.p95_ms);
  report->AddMetric(name + "/p99_ms", r.p99_ms);
}

/// Closed loop at saturation: every session keeps exactly one turn
/// outstanding, submitting its next turn from the previous turn's
/// completion callback, until each has completed the same number of
/// turns. Sessions run two-round dialogues ("show me <concept>", then the
/// vague "show me more") and are reset between dialogues, so prompts stay
/// short.
class SaturationLoop {
 public:
  SaturationLoop(Server* server, size_t num_sessions, size_t turns)
      : server_(server), turns_(turns), issued_(num_sessions, 0) {
    for (size_t s = 0; s < num_sessions; ++s) {
      sessions_.push_back(server_->OpenSession());
    }
  }
  ~SaturationLoop() {
    for (uint64_t session : sessions_) (void)server_->CloseSession(session);
  }
  SaturationLoop(const SaturationLoop&) = delete;
  SaturationLoop& operator=(const SaturationLoop&) = delete;

  /// Runs the loop to the end; returns completed turns per second.
  double Run() {
    const int64_t start = NowMicros();
    for (size_t s = 0; s < sessions_.size(); ++s) SubmitNext(s);
    {
      MutexLock lock(&mu_);
      while (finished_ < sessions_.size()) cv_.Wait(&mu_);
    }
    const double wall_s = static_cast<double>(NowMicros() - start) / 1e6;
    return wall_s > 0 ? static_cast<double>(completed_.load()) / wall_s : 0;
  }

  size_t failed() const { return failed_.load(); }

 private:
  /// Submits session `s`'s next turn, or marks the session finished. Turns
  /// of one session run one after another, so only its own chain of
  /// callbacks touches issued_[s].
  void SubmitNext(size_t s) {
    const size_t t = issued_[s]++;
    if (t == turns_) {
      Finish();
      return;
    }
    UserQuery query;
    if (t % 2 == 0) {
      (void)server_->ResetSession(sessions_[s]);
      const World& world = server_->coordinator()->world();
      query.text = "show me " + world.ConceptName(static_cast<uint32_t>(
                                    (s + t) % world.num_concepts()));
    } else {
      query.text = "show me more";
    }
    const Status admitted = server_->Submit(
        sessions_[s], std::move(query), [this, s](Result<AnswerTurn> turn) {
          (turn.ok() ? completed_ : failed_).fetch_add(1);
          SubmitNext(s);
        });
    if (!admitted.ok()) {
      failed_.fetch_add(turns_ - t);
      Finish();
    }
  }

  /// Notifies under the lock: once Run sees the last session finish, it
  /// may destroy the loop, so Finish must not touch it after unlocking.
  void Finish() {
    MutexLock lock(&mu_);
    ++finished_;
    cv_.NotifyAll();
  }

  Server* const server_;
  const size_t turns_;
  std::vector<uint64_t> sessions_;
  std::vector<size_t> issued_;
  std::atomic<size_t> completed_{0};
  std::atomic<size_t> failed_{0};
  Mutex mu_;
  CondVar cv_;
  size_t finished_ MQA_GUARDED_BY(mu_) = 0;
};

int Run(const bench::BenchArgs& args) {
  const size_t corpus = bench::Scaled(4000, args.scale, 600);
  const size_t steady_requests = bench::Scaled(240, args.scale, 40);
  // Floor above the queue capacity: the burst must overrun the queue and
  // demonstrate shedding at any --scale.
  const size_t burst_requests = bench::Scaled(400, args.scale, 100);
  // The same at every --scale: 125 turns per session made a ~30 ms pass
  // with 4 workers, too short for a stable 4-vs-1 ratio.
  constexpr size_t kSaturationTurns = 500;
  constexpr size_t kSaturationSessions = 16;

  bench::Banner("Serving-E10: concurrent front end, open-loop arrivals (N = " +
                std::to_string(corpus) + ")");

  MqaConfig config;
  config.world.num_concepts = 16;
  config.world.seed = 71;
  config.corpus_size = corpus;
  config.search.k = 5;
  config.search.beam_width = 64;
  config.observability.trace_turns = false;  // measure serving, not tracing
  config.serving.num_workers = 4;
  config.serving.queue_capacity = 64;
  // Burst sheds must all be queue-full backpressure, so the report
  // separates admission control from breaker behaviour.
  config.serving.breaker_failure_threshold = 1 << 30;

  auto server_or = Server::Create(config);
  if (!server_or.ok()) {
    std::fprintf(stderr, "%s\n", server_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Server> server = std::move(server_or).Value();

  // Scenario 1 — steady: Poisson arrivals well inside capacity. Expected
  // shape: zero shedding, single-digit-ms tails.
  const ScenarioResult steady =
      RunScenario(server.get(), steady_requests, /*rate_qps=*/150.0,
                  /*num_sessions=*/8, /*seed=*/73);

  // Scenario 2 — burst: all requests arrive at once (rate 0). The queue
  // fills, admission control sheds the excess with kResourceExhausted, and
  // the accepted turns keep a bounded tail — overload costs throughput,
  // never the latency of admitted work.
  const ScenarioResult burst =
      RunScenario(server.get(), burst_requests, /*rate_qps=*/0.0,
                  /*num_sessions=*/8, /*seed=*/79);

  bench::Table table({"scenario", "requests", "completed", "shed", "p50 ms",
                      "p95 ms", "p99 ms"});
  auto add_row = [&table](const std::string& name, const ScenarioResult& r) {
    table.AddRow({name, std::to_string(r.requests),
                  std::to_string(r.completed), std::to_string(r.shed),
                  FormatDouble(r.p50_ms, 2), FormatDouble(r.p95_ms, 2),
                  FormatDouble(r.p99_ms, 2)});
  };
  add_row("steady 150qps", steady);
  add_row("burst", burst);
  std::printf("\n");
  table.Print();

  const ServerStatsSnapshot stats = server->stats();
  std::printf(
      "\nserver totals: accepted=%llu completed=%llu shed_queue_full=%llu "
      "shed_deadline=%llu\n",
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.shed_queue_full),
      static_cast<unsigned long long>(stats.shed_deadline));
  server->Shutdown();
  server.reset();

  // Scenario 3 — saturation: a closed loop of 16 sessions, one turn
  // outstanding each, against a fresh server per worker count. The
  // scaling ratio is measured within this run, so machine speed cancels.
  std::printf("\nsaturation: %zu sessions x %zu turns, closed loop\n",
              kSaturationSessions, kSaturationTurns);
  bench::Table saturation({"workers", "turns/s", "failed"});
  std::map<size_t, double> turns_per_s;
  for (size_t workers : {1, 2, 4}) {
    MqaConfig sized = config;
    sized.serving.num_workers = workers;
    auto sized_or = Server::Create(sized);
    if (!sized_or.ok()) {
      std::fprintf(stderr, "%s\n", sized_or.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<Server> sized_server = std::move(sized_or).Value();
    SaturationLoop(sized_server.get(), kSaturationSessions, 4).Run();  // warm
    SaturationLoop loop(sized_server.get(), kSaturationSessions,
                        kSaturationTurns);
    turns_per_s[workers] = loop.Run();
    saturation.AddRow({std::to_string(workers),
                       FormatDouble(turns_per_s[workers], 0),
                       std::to_string(loop.failed())});
  }
  const double scaling_4v1 =
      turns_per_s[1] > 0 ? turns_per_s[4] / turns_per_s[1] : 0.0;
  saturation.Print();
  std::printf("scaling 4 workers vs 1: %.2fx\n", scaling_4v1);

  if (!args.json_path.empty()) {
    bench::JsonReporter report("bench_serving");
    report.AddConfig("corpus", static_cast<double>(corpus));
    report.AddConfig("workers",
                     static_cast<double>(config.serving.num_workers));
    report.AddConfig("queue_capacity",
                     static_cast<double>(config.serving.queue_capacity));
    report.AddConfig("scale", args.scale);
    report.AddConfig("hardware_threads",
                     static_cast<double>(std::thread::hardware_concurrency()));
    AddScenarioMetrics(&report, "steady", steady);
    AddScenarioMetrics(&report, "burst", burst);
    for (const auto& [workers, rate] : turns_per_s) {
      report.AddMetric(
          "saturation/w" + std::to_string(workers) + "_turns_per_s", rate);
    }
    report.AddMetric("saturation/scaling_4v1", scaling_4v1);
    if (!report.WriteToFile(args.json_path)) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mqa

int main(int argc, char** argv) {
  return mqa::Run(mqa::bench::ParseBenchArgs(&argc, argv));
}
