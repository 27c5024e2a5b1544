#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "workload.h"

namespace perfbench {

/// Fixed work per second of `--seconds`: turns (Server workloads) or
/// stream ops (churn; a read op is a two-turn dialogue) issued per second
/// of the requested run length. Calibrated so that a timed run lasts about
/// `--seconds` on a 4-vCPU Xeon VM at the commit that added the benchmark;
/// they fix the amount of work, which stays the same across commits
/// whatever the program's speed.
inline constexpr double kTurnsPerSecond = 6500.0;  // dialogue
inline constexpr double kMultimodalTurnsPerSecond = 5000.0;
inline constexpr double kChurnOpsPerSecond = 3000.0;

struct RunOptions {
  Workload workload = Workload::kDialogue;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< sets the fixed amount of work (see above)
  bool trace = false;     ///< also run the two single-threaded traced passes
  size_t setups = 3;      ///< setup_s is the median over this many setups
  std::string work_dir;   ///< where WAL directories and span logs go
  std::string git_sha = "unknown";
  bool verbose = true;    ///< print the human-readable report
};

/// One reported number. `count` is the number of samples behind it (1 for
/// a ratio of totals).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t count = 1;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;  ///< empty = every check passed
  std::vector<Metric> metrics;

  bool correct() const { return failed == 0 && check_failures.empty(); }
  /// The metric called `name`, or nullptr.
  const Metric* Find(const std::string& name) const;
};

/// Runs one workload end to end: set-up, untimed warm-up, the fixed-work
/// timed run, output checks, and (with `trace`) the traced passes.
/// Returns an error only when the system cannot be built or driven at
/// all; failed operations and checks are reported in the result.
mqa::Result<RunResult> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
