#ifndef MQA_CORE_STATUS_MONITOR_H_
#define MQA_CORE_STATUS_MONITOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/sync.h"

namespace mqa {

/// The five backend components of Figure 2 (plus the coordinator itself).
enum class ComponentStage {
  kDataPreprocessing,
  kVectorRepresentation,
  kIndexConstruction,
  kQueryExecution,
  kAnswerGeneration,
  kCoordinator,
};

const char* ComponentStageToString(ComponentStage stage);

/// One milestone line of the status-monitoring panel.
struct StatusEvent {
  ComponentStage stage = ComponentStage::kCoordinator;
  std::string message;
  double elapsed_ms = 0.0;
  bool completed = true;
  /// The stage finished, but in degraded mode (fallback answer, dropped
  /// modality, partial disk results, ...). Rendered as "[!]".
  bool degraded = false;
};

/// Collects milestone events ("data preprocessing done: 5000 objects, 2
/// modalities", ...) and forwards them to an optional subscriber — the
/// backend half of the paper's status monitoring panel.
///
/// The history is bounded, so a long-running server does not grow with the
/// turns it serves: it keeps the first event of each ComponentStage (the
/// offline build milestones) and the kRecentEvents most recent other
/// events. The subscriber still sees every event.
///
/// Thread-safe: pipeline stages running on the DAG executor may Emit
/// concurrently, so the history is mutex-guarded and `history()` returns a
/// snapshot. The subscriber callback is invoked outside the lock (a
/// callback that re-enters the monitor must not assume ordering against
/// concurrent emitters).
class StatusMonitor {
 public:
  using Callback = std::function<void(const StatusEvent&)>;

  /// Events kept besides each stage's first one.
  static constexpr size_t kRecentEvents = 256;

  /// Registers a subscriber (replaces any previous one).
  void Subscribe(Callback callback) {
    MutexLock lock(&mu_);
    callback_ = std::move(callback);
  }

  /// Records an event and notifies the subscriber.
  void Emit(StatusEvent event);
  void Emit(ComponentStage stage, std::string message,
            double elapsed_ms = 0.0);

  /// Records a degraded-mode event (the stage delivered a reduced result).
  void EmitDegraded(ComponentStage stage, std::string message,
                    double elapsed_ms = 0.0);

  /// Snapshot of the retained events in the order they were emitted: the
  /// first event of each stage, and the kRecentEvents most recent others.
  /// Until more than that many have been emitted, that is every event.
  std::vector<StatusEvent> history() const;

  void Clear() {
    MutexLock lock(&mu_);
    firsts_.clear();
    recent_.clear();
    oldest_ = 0;
  }

  /// Renders the retained history as the panel would show it (one line per
  /// event; see history()).
  std::string Render() const;

 private:
  struct Entry {
    uint64_t seq = 0;  ///< emission order
    StatusEvent event;
  };

  mutable Mutex mu_;
  Callback callback_ MQA_GUARDED_BY(mu_);
  uint64_t next_seq_ MQA_GUARDED_BY(mu_) = 0;
  /// The first event of each stage seen, in emission order.
  std::vector<Entry> firsts_ MQA_GUARDED_BY(mu_);
  /// Ring of the most recent other events; once full, `oldest_` is the
  /// slot the next event overwrites.
  std::vector<Entry> recent_ MQA_GUARDED_BY(mu_);
  size_t oldest_ MQA_GUARDED_BY(mu_) = 0;
};

}  // namespace mqa

#endif  // MQA_CORE_STATUS_MONITOR_H_
