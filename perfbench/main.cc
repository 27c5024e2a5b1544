// The benchmark binary: runs one workload for one seed and prints a
// human-readable report followed by one machine-readable line,
//
//   PERFBENCH_RESULT {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
//
// carrying every metric the run measured. perfbench/run.py builds this
// binary and selects the metrics BENCHMARK.json names.
//
//   perfbench_main --workload dialogue|multimodal|churn --seed N
//                  --seconds S [--trace 0|1] [--work-dir DIR]
//                  [--git-sha SHA]
//
// Exit code: 0 when every operation and output check passed, 1 when one
// failed (the result line is still printed), 2 on bad arguments or when
// the system could not be built.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_main: %s\nusage: perfbench_main --workload "
               "dialogue|multimodal|churn --seed N --seconds S [--trace 0|1] "
               "[--work-dir DIR] [--git-sha SHA]\n",
               why);
  return 2;
}

/// JSON string body: the benchmark's own names and units need no escaping
/// beyond quotes and backslashes.
std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.work_dir = ".";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      auto workload = perfbench::ParseWorkload(value);
      if (!workload.ok()) return Usage(workload.status().message().c_str());
      options.workload = *workload;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  mqa::Result<perfbench::RunResult> result = perfbench::RunWorkload(options);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench_main: %s\n",
                 result.status().ToString().c_str());
    return 2;
  }
  std::string json = "{\"correct\":";
  json += result->correct() ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(result->attempted);
  json += ",\"failed\":" + std::to_string(result->failed);
  json += ",\"check_failures\":[";
  for (size_t i = 0; i < result->check_failures.size(); ++i) {
    if (i > 0) json += ",";
    json += Quoted(result->check_failures[i]);
  }
  json += "],\"metrics\":{";
  for (size_t i = 0; i < result->metrics.size(); ++i) {
    const perfbench::Metric& m = result->metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (i > 0) json += ",";
    json += Quoted(m.name) + ":{\"value\":" + value +
            ",\"unit\":" + Quoted(m.unit) +
            ",\"count\":" + std::to_string(m.count) + "}";
  }
  json += "}}";
  std::printf("PERFBENCH_RESULT %s\n", json.c_str());
  return result->correct() ? 0 : 1;
}
