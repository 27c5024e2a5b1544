// Unit tests of the benchmark itself: the percentile helper, seeded op
// streams, and run-to-run determinism of the exact counts.

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench.h"
#include "percentile.h"
#include "workload.h"

namespace perfbench {
namespace {

std::vector<double> Range(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // n, n-1, ..., 1: the helper must not rely on input order
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(PercentileOf(Range(100), 0.50).value, 50.0);
  EXPECT_EQ(PercentileOf(Range(100), 0.99).value, 99.0);
  EXPECT_EQ(PercentileOf(Range(5), 0.50).value, 3.0);
  EXPECT_EQ(PercentileOf({7.0}, 0.99).value, 7.0);
  EXPECT_EQ(PercentileOf(Range(100), 0.99).count, 100u);
}

TEST(PercentileTest, SupportNeedsTenSamplesBeyond) {
  const Percentile p99 = PercentileOf(Range(1000), 0.99);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.supported);
  EXPECT_FALSE(PercentileOf(Range(999), 0.99).supported);
  EXPECT_TRUE(PercentileOf(Range(20), 0.50).supported);
  EXPECT_FALSE(PercentileOf(Range(19), 0.50).supported);
  const Percentile empty = PercentileOf({}, 0.5);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_FALSE(empty.supported);
}

TEST(PercentileTest, DescribePrintsCountAndSupport) {
  const std::string ok = Describe(PercentileOf(Range(1000), 0.99), "ms");
  EXPECT_NE(ok.find("n=1000"), std::string::npos) << ok;
  EXPECT_EQ(ok.find("UNSUPPORTED"), std::string::npos) << ok;
  const std::string thin = Describe(PercentileOf(Range(50), 0.99), "ms");
  EXPECT_NE(thin.find("UNSUPPORTED"), std::string::npos) << thin;
}

mqa::World MakeWorld(Workload workload) {
  auto world = mqa::World::Create(ConfigFor(workload).world);
  EXPECT_TRUE(world.ok());
  return std::move(world).Value();
}

bool SameQuery(const mqa::UserQuery& a, const mqa::UserQuery& b) {
  return a.text == b.text && a.weight_override == b.weight_override &&
         a.uploaded_image.has_value() == b.uploaded_image.has_value() &&
         (!a.uploaded_image.has_value() ||
          a.uploaded_image->features == b.uploaded_image->features);
}

bool SameScripts(const std::vector<Script>& a, const std::vector<Script>& b) {
  if (a.size() != b.size()) return false;
  for (size_t s = 0; s < a.size(); ++s) {
    if (a[s].size() != b[s].size()) return false;
    for (size_t i = 0; i < a[s].size(); ++i) {
      if (!SameQuery(a[s][i].first, b[s][i].first) ||
          !SameQuery(a[s][i].second, b[s][i].second) ||
          a[s][i].select_rank != b[s][i].select_rank) {
        return false;
      }
    }
  }
  return true;
}

TEST(WorkloadTest, ScriptsAreASeededFunction) {
  const mqa::World world = MakeWorld(Workload::kMultimodal);
  const auto a = MakeScripts(world, 7, kSessions, 20, true, 10);
  EXPECT_TRUE(SameScripts(a, MakeScripts(world, 7, kSessions, 20, true, 10)));
  EXPECT_FALSE(SameScripts(a, MakeScripts(world, 8, kSessions, 20, true, 10)));
  for (const Script& script : a) {
    ASSERT_EQ(script.size(), 20u);
    for (const Dialogue& d : script) {
      EXPECT_TRUE(d.first.uploaded_image.has_value());
      EXPECT_LT(d.select_rank, 10u);
      ASSERT_EQ(d.first.weight_override.size(), 4u);
      EXPECT_EQ(d.first.weight_override, d.second.weight_override);
      EXPECT_EQ(*std::max_element(d.first.weight_override.begin(),
                                  d.first.weight_override.end()),
                4.0f);
    }
  }
}

TEST(WorkloadTest, ChurnOpsAreASeededFunctionWithExactShares) {
  const mqa::World world = MakeWorld(Workload::kChurn);
  auto same = [](const std::vector<ChurnOp>& a, const std::vector<ChurnOp>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].kind != b[i].kind || a[i].pick != b[i].pick ||
          !SameQuery(a[i].read.first, b[i].read.first) ||
          a[i].object.latent != b[i].object.latent) {
        return false;
      }
    }
    return true;
  };
  const auto a = MakeChurnOps(world, 7, 1000, 10);
  EXPECT_TRUE(same(a, MakeChurnOps(world, 7, 1000, 10)));
  EXPECT_FALSE(same(a, MakeChurnOps(world, 8, 1000, 10)));
  size_t reads = 0, inserts = 0, deletes = 0;
  for (const ChurnOp& op : a) {
    reads += op.kind == OpKind::kRead;
    inserts += op.kind == OpKind::kInsert;
    deletes += op.kind == OpKind::kDelete;
  }
  EXPECT_EQ(reads, 700u);
  EXPECT_EQ(inserts, 150u);
  EXPECT_EQ(deletes, 150u);
}

/// Two runs of one seed give identical exact counts.
void ExpectDeterministic(Workload workload, double seconds) {
  RunOptions options;
  options.workload = workload;
  options.seed = 5;
  options.seconds = seconds;
  options.setups = 1;
  options.verbose = false;
  const char* dir = std::getenv("PERFBENCH_WORK_DIR");
  options.work_dir = dir != nullptr ? dir : ".";
  auto first = RunWorkload(options);
  auto second = RunWorkload(options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(first->correct());
  EXPECT_EQ(first->attempted, second->attempted);
  std::vector<std::string> names = {"recall_at_10", "graph.dist_comps_per_turn",
                                    "vector.pruned_frac"};
  if (workload == Workload::kChurn) {
    names.push_back("core.compactions");
    ASSERT_NE(first->Find("core.compactions"), nullptr);
    EXPECT_GE(first->Find("core.compactions")->value, 1.0);
  }
  for (const std::string& name : names) {
    const Metric* a = first->Find(name);
    const Metric* b = second->Find(name);
    ASSERT_NE(a, nullptr) << name;
    ASSERT_NE(b, nullptr) << name;
    EXPECT_EQ(a->value, b->value) << name;
    EXPECT_EQ(a->count, b->count) << name;
  }
}

TEST(DeterminismTest, Dialogue) { ExpectDeterministic(Workload::kDialogue, 0.5); }

TEST(DeterminismTest, Multimodal) {
  ExpectDeterministic(Workload::kMultimodal, 0.5);
}

TEST(DeterminismTest, ChurnCrossingCompaction) {
  // 4.5 s of churn work is 13.5k ops: about 2k deletes, enough for one
  // compaction.
  ExpectDeterministic(Workload::kChurn, 4.5);
}

}  // namespace
}  // namespace perfbench
