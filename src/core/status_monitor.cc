#include "core/status_monitor.h"

#include <algorithm>

#include "common/string_util.h"

namespace mqa {

const char* ComponentStageToString(ComponentStage stage) {
  switch (stage) {
    case ComponentStage::kDataPreprocessing:
      return "data-preprocessing";
    case ComponentStage::kVectorRepresentation:
      return "vector-representation";
    case ComponentStage::kIndexConstruction:
      return "index-construction";
    case ComponentStage::kQueryExecution:
      return "query-execution";
    case ComponentStage::kAnswerGeneration:
      return "answer-generation";
    case ComponentStage::kCoordinator:
      return "coordinator";
  }
  return "unknown";
}

void StatusMonitor::Emit(StatusEvent event) {
  Callback callback;
  {
    MutexLock lock(&mu_);
    Entry entry{next_seq_++, event};
    const bool first = std::none_of(
        firsts_.begin(), firsts_.end(),
        [&](const Entry& e) { return e.event.stage == event.stage; });
    if (first) {
      firsts_.push_back(std::move(entry));
    } else if (recent_.size() < kRecentEvents) {
      recent_.push_back(std::move(entry));
    } else {
      recent_[oldest_] = std::move(entry);
      oldest_ = (oldest_ + 1) % kRecentEvents;
    }
    callback = callback_;
  }
  if (callback) callback(event);
}

std::vector<StatusEvent> StatusMonitor::history() const {
  MutexLock lock(&mu_);
  std::vector<StatusEvent> out;
  out.reserve(firsts_.size() + recent_.size());
  // Both lists are in emission order; merge them by sequence number.
  size_t f = 0;
  for (size_t i = 0; i < recent_.size(); ++i) {
    const Entry& r = recent_[(oldest_ + i) % recent_.size()];
    while (f < firsts_.size() && firsts_[f].seq < r.seq) {
      out.push_back(firsts_[f++].event);
    }
    out.push_back(r.event);
  }
  while (f < firsts_.size()) out.push_back(firsts_[f++].event);
  return out;
}

void StatusMonitor::Emit(ComponentStage stage, std::string message,
                         double elapsed_ms) {
  Emit(StatusEvent{stage, std::move(message), elapsed_ms, true, false});
}

void StatusMonitor::EmitDegraded(ComponentStage stage, std::string message,
                                 double elapsed_ms) {
  Emit(StatusEvent{stage, std::move(message), elapsed_ms, true, true});
}

std::string StatusMonitor::Render() const {
  std::string out;
  for (const StatusEvent& e : history()) {
    out += e.degraded ? "[!] " : (e.completed ? "[x] " : "[ ] ");
    out += ComponentStageToString(e.stage);
    out += ": ";
    out += e.message;
    if (e.elapsed_ms > 0.0) {
      out += " (" + FormatDouble(e.elapsed_ms, 1) + " ms)";
    }
    out += "\n";
  }
  return out;
}

}  // namespace mqa
