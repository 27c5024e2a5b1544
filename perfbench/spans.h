#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer.
struct SpanRecord {
  const char* name = "";  ///< static string, e.g. "retrieval.retrieve"
  uint64_t request = 0;   ///< session/turn or op index (see SpanLog users)
  uint32_t parent = 0;    ///< index of the causing span, or kNoParent
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// The traced run's span store: spans are appended in memory while the
/// run executes and written out once it ends. Single-threaded.
class SpanLog {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  uint32_t Begin(const char* name, uint64_t request,
                 uint32_t parent = kNoParent) {
    spans_.push_back({name, request, parent, NowNanos(), 0});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void End(uint32_t span) { spans_[span].end_ns = NowNanos(); }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

  /// Durations in microseconds of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const {
    std::vector<double> out;
    for (const SpanRecord& s : spans_) {
      if (name == s.name) out.push_back((s.end_ns - s.start_ns) / 1e3);
    }
    return out;
  }

  /// Duration in microseconds of the span called `name` of each request
  /// (its first one, should a request have several).
  std::map<uint64_t, double> ByRequestUs(const std::string& name) const {
    std::map<uint64_t, double> out;
    for (const SpanRecord& s : spans_) {
      if (name == s.name) out.emplace(s.request, (s.end_ns - s.start_ns) / 1e3);
    }
    return out;
  }

  /// Self time in microseconds of every span called `name`: its duration
  /// minus the durations of its children (children never overlap here).
  std::vector<double> SelfTimesUs(const std::string& name) const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const SpanRecord& s : spans_) {
      if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      if (name == s.name) {
        out.push_back((s.end_ns - s.start_ns - child_ns[i]) / 1e3);
      }
    }
    return out;
  }

  /// One JSON object per line: name, request, parent (-1 = none), start
  /// and end in ns of the steady clock.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const SpanRecord& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"request\":%llu,\"parent\":%lld,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   s.name, static_cast<unsigned long long>(s.request),
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<SpanRecord> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request,
             uint32_t parent = SpanLog::kNoParent)
      : log_(log), id_(log->Begin(name, request, parent)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
