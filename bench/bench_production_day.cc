// A day in the life of a durable MQA deployment: morning dialogue
// traffic, a midday ingest burst, an afternoon of deletes overlapping an
// LLM outage, an abrupt crash, and timed recovery into evening traffic.
// Gates the robustness SLOs end to end: no acked write is ever lost, no
// deleted object resurfaces, no turn fails, and recovery stays fast.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/fault.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/durable_system.h"

namespace mqa {
namespace {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t idx = std::min(
      values.size() - 1, static_cast<size_t>(p * (values.size() - 1) + 0.5));
  return values[idx];
}

int Run(const bench::BenchArgs& args) {
  bench::Banner(
      "Production day: dialogue + live mutation + outage + crash recovery");

  MqaConfig config;
  config.world.num_concepts = 24;
  config.world.seed = 83;
  config.corpus_size = bench::Scaled(4000, args.scale, 600);
  config.search.k = 10;
  config.search.beam_width = 96;
  config.resilience.enable = true;  // LLM outages degrade, never fail

  const size_t kMorningTurns = bench::Scaled(96, args.scale, 24);
  const size_t kInserts = bench::Scaled(320, args.scale, 48);
  const size_t kDeletes = bench::Scaled(320, args.scale, 48);
  const size_t kOutageTurns = bench::Scaled(32, args.scale, 8);
  const size_t kEveningTurns = bench::Scaled(96, args.scale, 24);

  DurabilityOptions durability;
  durability.wal_sync_every = 1;  // every ack is crash-durable
  // Trip a compaction + checkpoint during the afternoon delete wave.
  durability.checkpoint_garbage_ratio = 0.05;

  const std::string dir =
      (std::filesystem::temp_directory_path() / "mqa_bench_production_day")
          .string();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  Timer build_timer;
  auto sys_or = DurableSystem::Open(config, dir, durability);
  if (!sys_or.ok()) {
    std::fprintf(stderr, "%s\n", sys_or.status().ToString().c_str());
    return 1;
  }
  auto sys = std::move(sys_or).Value();
  const double build_ms = build_timer.ElapsedMillis();

  // The ack oracle: every acknowledged mutation changes the expected live
  // count; after the crash the recovered system must match it exactly.
  size_t expected_live = sys->coordinator()->kb().live_size();
  // Turn latencies per phase: the outage turns' retry backoff must not
  // hide in (or inflate) the healthy phases' tails.
  std::vector<double> morning_ms, outage_ms, evening_ms;
  size_t turn_failures = 0;
  size_t deleted_resurfaced = 0;
  size_t degraded_turns = 0;

  Rng rng(89);
  auto run_turns = [&](size_t n, std::vector<double>* phase_ms) {
    for (size_t i = 0; i < n; ++i) {
      Coordinator* c = sys->coordinator();
      const uint32_t concept_id = static_cast<uint32_t>(
          rng.NextUint64(c->world().num_concepts()));
      UserQuery query;
      query.text = c->world().MakeTextQuery(concept_id, &rng).text;
      Timer timer;
      auto turn = c->Ask(query);
      phase_ms->push_back(timer.ElapsedMillis());
      if (!turn.ok()) {
        ++turn_failures;
        continue;
      }
      if (turn->degraded) ++degraded_turns;
      for (const RetrievedItem& item : turn->items) {
        if (c->kb().IsDeleted(item.id)) ++deleted_resurfaced;
      }
      c->ResetDialogue();
    }
  };

  bench::Table table({"phase", "ops", "ms (p95 turn / total)", "kb live"});
  auto live = [&]() {
    return std::to_string(sys->coordinator()->kb().live_size());
  };

  // -- Morning: steady dialogue traffic.
  run_turns(kMorningTurns, &morning_ms);
  const double morning_p95 = Percentile(morning_ms, 0.95);
  table.AddRow({"morning turns", std::to_string(kMorningTurns),
                FormatDouble(morning_p95, 2), live()});

  // -- Midday: ingest burst. Every ack is WAL-durable before it returns.
  Timer ingest_timer;
  for (size_t i = 0; i < kInserts; ++i) {
    const uint32_t concept_id = static_cast<uint32_t>(
        rng.NextUint64(sys->coordinator()->world().num_concepts()));
    auto id = sys->Ingest(
        sys->coordinator()->world().MakeObject(concept_id, &rng));
    if (!id.ok()) {
      std::fprintf(stderr, "ingest: %s\n", id.status().ToString().c_str());
      return 1;
    }
    ++expected_live;
  }
  const double ingest_ms = ingest_timer.ElapsedMillis();
  table.AddRow({"midday ingest", std::to_string(kInserts),
                FormatDouble(ingest_ms, 1), live()});

  // -- Afternoon: deletes overlapping an LLM outage. Turns must degrade
  // to extractive answers, not fail; deletes keep acking throughout and
  // the garbage ratio crossing 5% forces a compaction + checkpoint.
  {
    FaultSpec outage;
    outage.code = StatusCode::kUnavailable;
    outage.message = "LLM provider outage";
    outage.max_fires = kOutageTurns * 4;  // outlasts per-turn retries
    ScopedFault fault("llm/complete", outage, &FaultInjector::Global());
    run_turns(kOutageTurns, &outage_ms);
  }
  const double outage_p95 = Percentile(outage_ms, 0.95);
  table.AddRow({"outage turns", std::to_string(kOutageTurns),
                FormatDouble(outage_p95, 2), live()});
  Timer delete_timer;
  size_t deletes_done = 0;
  while (deletes_done < kDeletes) {
    const uint64_t id =
        rng.NextUint64(sys->coordinator()->kb().size());
    if (sys->coordinator()->kb().IsDeleted(id)) continue;
    Status st = sys->Remove(id);
    if (!st.ok()) {
      std::fprintf(stderr, "remove: %s\n", st.ToString().c_str());
      return 1;
    }
    --expected_live;
    ++deletes_done;
  }
  const double delete_ms = delete_timer.ElapsedMillis();
  const uint64_t compactions = sys->coordinator()->compactions();
  table.AddRow({"afternoon deletes", std::to_string(kDeletes),
                FormatDouble(delete_ms, 1), live()});

  // -- The crash: power is yanked mid-afternoon. Unsynced bytes are gone;
  // with sync_every == 1 every ack already reached disk.
  Status crash = sys->CrashForTest();
  if (!crash.ok()) {
    std::fprintf(stderr, "crash: %s\n", crash.ToString().c_str());
    return 1;
  }
  sys.reset();

  Timer recovery_timer;
  auto recovered_or = DurableSystem::Open(config, dir, durability);
  if (!recovered_or.ok()) {
    std::fprintf(stderr, "recover: %s\n",
                 recovered_or.status().ToString().c_str());
    return 1;
  }
  sys = std::move(recovered_or).Value();
  const double recovery_ms = recovery_timer.ElapsedMillis();
  const RecoveryReport& report = sys->recovery_report();
  const size_t recovered_live = sys->coordinator()->kb().live_size();
  const size_t lost_acked =
      recovered_live > expected_live ? recovered_live - expected_live
                                     : expected_live - recovered_live;
  table.AddRow({"crash + recovery",
                std::to_string(report.replayed_inserts +
                               report.replayed_removes) +
                    " replayed",
                FormatDouble(recovery_ms, 1), live()});

  // -- Evening: traffic resumes on the recovered system.
  run_turns(kEveningTurns, &evening_ms);
  const double evening_p95 = Percentile(evening_ms, 0.95);
  table.AddRow({"evening turns", std::to_string(kEveningTurns),
                FormatDouble(evening_p95, 2), live()});
  table.Print();

  std::vector<double> day_ms = morning_ms;
  day_ms.insert(day_ms.end(), outage_ms.begin(), outage_ms.end());
  day_ms.insert(day_ms.end(), evening_ms.begin(), evening_ms.end());
  const double p95 = Percentile(day_ms, 0.95);
  std::printf(
      "\nbuild %.0f ms | p95 turn %.2f ms (morning %.2f / outage %.2f / "
      "evening %.2f) | recovery %.1f ms "
      "(%llu inserts + %llu removes replayed)\n"
      "lost acked writes %zu | deleted resurfaced %zu | turn failures %zu "
      "| degraded turns %zu | compactions %llu\n",
      build_ms, p95, morning_p95, outage_p95, evening_p95, recovery_ms,
      static_cast<unsigned long long>(report.replayed_inserts),
      static_cast<unsigned long long>(report.replayed_removes), lost_acked,
      deleted_resurfaced, turn_failures, degraded_turns,
      static_cast<unsigned long long>(compactions));

  if (!args.json_path.empty()) {
    bench::JsonReporter reporter("bench_production_day");
    reporter.AddConfig("corpus_size", static_cast<double>(config.corpus_size));
    reporter.AddConfig("inserts", static_cast<double>(kInserts));
    reporter.AddConfig("deletes", static_cast<double>(kDeletes));
    reporter.AddConfig("scale", args.scale);
    reporter.AddMetric("day/p95_turn_ms", p95);
    reporter.AddMetric("day/morning_p95_turn_ms", morning_p95);
    reporter.AddMetric("day/outage_p95_turn_ms", outage_p95);
    reporter.AddMetric("day/evening_p95_turn_ms", evening_p95);
    reporter.AddMetric("day/recovery_ms", recovery_ms);
    reporter.AddMetric("day/lost_acked_writes",
                       static_cast<double>(lost_acked));
    reporter.AddMetric("day/deleted_resurfaced",
                       static_cast<double>(deleted_resurfaced));
    reporter.AddMetric("day/turn_failures",
                       static_cast<double>(turn_failures));
    reporter.AddMetric("day/degraded_turns",
                       static_cast<double>(degraded_turns));
    reporter.AddMetric("day/compactions", static_cast<double>(compactions));
    reporter.AddMetric("day/replayed_mutations",
                       static_cast<double>(report.replayed_inserts +
                                           report.replayed_removes));
    reporter.AddTable(table);
    if (!reporter.WriteToFile(args.json_path)) return 1;
  }

  std::filesystem::remove_all(dir, ec);
  std::printf(
      "\nExpected shape: every acknowledged mutation survives the crash\n"
      "(lost acked writes == 0), tombstoned objects never resurface, the\n"
      "LLM outage degrades turns instead of failing them, and recovery is\n"
      "a snapshot load plus a short WAL replay.\n");
  return 0;
}

}  // namespace
}  // namespace mqa

int main(int argc, char** argv) {
  return mqa::Run(mqa::bench::ParseBenchArgs(&argc, argv));
}
