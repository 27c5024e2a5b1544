#include "core/status_monitor.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace mqa {
namespace {

TEST(StatusMonitorTest, RecordsHistoryInOrder) {
  StatusMonitor monitor;
  monitor.Emit(ComponentStage::kDataPreprocessing, "loaded");
  monitor.Emit(ComponentStage::kIndexConstruction, "built", 12.5);
  ASSERT_EQ(monitor.history().size(), 2u);
  EXPECT_EQ(monitor.history()[0].message, "loaded");
  EXPECT_EQ(monitor.history()[1].stage, ComponentStage::kIndexConstruction);
  EXPECT_DOUBLE_EQ(monitor.history()[1].elapsed_ms, 12.5);
}

TEST(StatusMonitorTest, NotifiesSubscriber) {
  StatusMonitor monitor;
  std::vector<std::string> seen;
  monitor.Subscribe([&seen](const StatusEvent& e) {
    seen.push_back(e.message);
  });
  monitor.Emit(ComponentStage::kQueryExecution, "searching");
  monitor.Emit(ComponentStage::kAnswerGeneration, "answering");
  EXPECT_EQ(seen, (std::vector<std::string>{"searching", "answering"}));
}

TEST(StatusMonitorTest, RenderShowsTicksAndTimings) {
  StatusMonitor monitor;
  monitor.Emit(ComponentStage::kVectorRepresentation, "encoded", 3.0);
  StatusEvent pending;
  pending.stage = ComponentStage::kIndexConstruction;
  pending.message = "building";
  pending.completed = false;
  monitor.Emit(pending);
  const std::string panel = monitor.Render();
  EXPECT_NE(panel.find("[x] vector-representation: encoded (3.0 ms)"),
            std::string::npos);
  EXPECT_NE(panel.find("[ ] index-construction: building"),
            std::string::npos);
}

TEST(StatusMonitorTest, ClearEmptiesHistory) {
  StatusMonitor monitor;
  monitor.Emit(ComponentStage::kCoordinator, "x");
  monitor.Clear();
  EXPECT_TRUE(monitor.history().empty());
  EXPECT_EQ(monitor.Render(), "");
}

TEST(StatusMonitorTest, HistoryKeepsMilestonesAndTheMostRecentEvents) {
  StatusMonitor monitor;
  monitor.Emit(ComponentStage::kDataPreprocessing, "loaded");
  monitor.Emit(ComponentStage::kVectorRepresentation, "encoded");
  monitor.Emit(ComponentStage::kIndexConstruction, "built");
  constexpr size_t kTurns = 4 * StatusMonitor::kRecentEvents;
  for (size_t i = 0; i < kTurns; ++i) {
    monitor.Emit(ComponentStage::kQueryExecution, "query " + std::to_string(i));
    monitor.Emit(ComponentStage::kAnswerGeneration,
                 "answer " + std::to_string(i));
  }
  const std::vector<StatusEvent> history = monitor.history();
  // The three milestones, the first query and answer events, and the ring.
  ASSERT_EQ(history.size(), 5 + StatusMonitor::kRecentEvents);
  EXPECT_EQ(history[0].message, "loaded");
  EXPECT_EQ(history[1].message, "encoded");
  EXPECT_EQ(history[2].message, "built");
  EXPECT_EQ(history[3].message, "query 0");
  EXPECT_EQ(history[4].message, "answer 0");
  // The ring holds the newest events, oldest first.
  const size_t oldest_kept = kTurns - StatusMonitor::kRecentEvents / 2;
  EXPECT_EQ(history[5].message, "query " + std::to_string(oldest_kept));
  EXPECT_EQ(history.back().message, "answer " + std::to_string(kTurns - 1));
  EXPECT_NE(monitor.Render().find("[x] index-construction: built"),
            std::string::npos);
}

TEST(StatusMonitorTest, StageNamesAreDistinct) {
  std::set<std::string> names;
  for (ComponentStage stage :
       {ComponentStage::kDataPreprocessing,
        ComponentStage::kVectorRepresentation,
        ComponentStage::kIndexConstruction, ComponentStage::kQueryExecution,
        ComponentStage::kAnswerGeneration, ComponentStage::kCoordinator}) {
    names.insert(ComponentStageToString(stage));
  }
  EXPECT_EQ(names.size(), 6u);
}

}  // namespace
}  // namespace mqa
