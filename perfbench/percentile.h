#ifndef PERFBENCH_PERCENTILE_H_
#define PERFBENCH_PERCENTILE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile together with what it rests on. Every percentile the
/// benchmark prints comes from PercentileOf, over samples of one kind only:
/// op kinds with separate modes (turns, insert acks, plain deletes,
/// compacting deletes) each keep their own sample vector.
struct Percentile {
  double value = 0.0;
  size_t count = 0;      ///< samples it was taken over
  size_t beyond = 0;     ///< samples strictly above its rank
  bool supported = false;  ///< at least ten samples lie beyond it
};

/// Nearest-rank percentile `q` in (0, 1) of `samples`: the value at rank
/// ceil(q * n). Sorts a copy; an empty sample gives an unsupported 0.
inline Percentile PercentileOf(std::vector<double> samples, double q) {
  Percentile p;
  p.count = samples.size();
  if (samples.empty()) return p;
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const size_t index = std::clamp<size_t>(rank, 1, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  p.value = samples[index];
  p.beyond = samples.size() - index - 1;
  p.supported = p.beyond >= 10;
  return p;
}

/// "1.2345 ms (n=8000)", or with " UNSUPPORTED: 9 samples beyond" appended
/// when fewer than ten samples lie beyond the percentile.
inline std::string Describe(const Percentile& p, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%.6g %s (n=%zu%s", p.value, unit, p.count,
                p.supported ? ")" : ", UNSUPPORTED: ");
  std::string out = buf;
  if (!p.supported) out += std::to_string(p.beyond) + " samples beyond)";
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_PERCENTILE_H_
