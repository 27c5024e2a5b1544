#include "common/fault.h"

#include <functional>

#include "common/metrics.h"

namespace mqa {

FaultInjector& FaultInjector::Global() {
  // Intentionally leaked singleton (never destroyed, shared by threads).
  static FaultInjector* const kInjector =  // NOLINT(mqa-naked-new)
      new FaultInjector();
  return *kInjector;
}

void FaultInjector::Arm(const std::string& point, FaultSpec spec) {
  MutexLock lock(&mu_);
  PointState& state =
      points_.insert_or_assign(point, PointState{}).first->second;
  state.spec = std::move(spec);
  // Per-point PRNG: the schedule of one point never depends on arming
  // order or on draws made by other points.
  state.rng = Rng(seed_ ^ std::hash<std::string>{}(point));
  state.armed = true;
  armed_points_.store(static_cast<int>(CountArmedLocked()),
                      std::memory_order_relaxed);
}

void FaultInjector::Disarm(const std::string& point) {
  MutexLock lock(&mu_);
  points_.erase(point);
  armed_points_.store(static_cast<int>(CountArmedLocked()),
                      std::memory_order_relaxed);
}

void FaultInjector::DisarmAll() {
  MutexLock lock(&mu_);
  points_.clear();
  armed_points_.store(0, std::memory_order_relaxed);
}

void FaultInjector::Seed(uint64_t seed) {
  MutexLock lock(&mu_);
  seed_ = seed;
}

void FaultInjector::SetClock(Clock* clock) {
  MutexLock lock(&mu_);
  clock_ = clock;
}

FaultPointStats FaultInjector::stats(const std::string& point) const {
  MutexLock lock(&mu_);
  const auto it = points_.find(point);
  return it == points_.end() ? FaultPointStats{} : it->second.stats;
}

std::vector<std::string> FaultInjector::ArmedPoints() const {
  MutexLock lock(&mu_);
  std::vector<std::string> out;
  for (const auto& [name, state] : points_) {
    if (state.armed) out.push_back(name);
  }
  return out;
}

size_t FaultInjector::CountArmedLocked() const {
  size_t n = 0;
  for (const auto& [name, state] : points_) {
    if (state.armed) ++n;
  }
  return n;
}

Status FaultInjector::CheckSlow(std::string_view point,
                                double* partial_fraction) {
  double latency_ms = 0.0;
  Status injected = Status::OK();
  Clock* clock = nullptr;
  {
    MutexLock lock(&mu_);
    const auto it = points_.find(point);
    if (it == points_.end() || !it->second.armed) return Status::OK();
    PointState& state = it->second;
    ++state.stats.hits;

    bool fires = state.stats.hits > state.spec.skip_first;
    if (fires && state.spec.every_nth > 0) {
      const uint64_t eligible = state.stats.hits - state.spec.skip_first;
      fires = eligible % state.spec.every_nth == 0;
    }
    if (fires && state.spec.probability < 1.0) {
      fires = state.rng.Bernoulli(state.spec.probability);
    }
    if (!fires) return Status::OK();

    ++state.stats.fires;
    if (state.spec.once ||
        (state.spec.max_fires > 0 &&
         state.stats.fires >= state.spec.max_fires)) {
      state.armed = false;
      armed_points_.store(static_cast<int>(CountArmedLocked()),
                          std::memory_order_relaxed);
    }
    latency_ms = state.spec.latency_ms;
    if (partial_fraction != nullptr && state.spec.partial_fraction >= 0.0 &&
        state.spec.partial_fraction <= 1.0) {
      *partial_fraction = state.spec.partial_fraction;
    }
    if (state.spec.code != StatusCode::kOk) {
      injected = Status::FromCode(state.spec.code,
                                  "[fault:" + std::string(point) + "] " +
                                      state.spec.message);
    }
    clock = clock_;
  }
  // Injected misbehaviour is observable: without these, a chaos run's
  // latency spikes and error storms would be invisible to any timing.
  static Counter* const fires =
      MetricsRegistry::Global().GetCounter("fault/fires");
  fires->Increment();
  // The latency spike sleeps outside the lock so concurrent fault points
  // (and Arm/Disarm from a driver thread) never serialize behind it.
  if (latency_ms > 0.0) {
    static Histogram* const injected_latency_ms =
        MetricsRegistry::Global().GetHistogram("fault/injected_latency_ms");
    injected_latency_ms->Record(latency_ms);
    if (clock == nullptr) clock = SystemClock();
    clock->SleepForMillis(latency_ms);
  }
  if (!injected.ok()) {
    static Counter* const injected_errors =
        MetricsRegistry::Global().GetCounter("fault/injected_errors");
    injected_errors->Increment();
  }
  return injected;
}

}  // namespace mqa
