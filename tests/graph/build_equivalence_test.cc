// Build-equivalence oracles for the parallel graph construction stages:
//
//  * NN-Descent is pinned to golden adjacency hashes recorded from the
//    serial implementation, at every SIMD tier the CPU supports;
//  * a weighted 4-modality mqa-hybrid build, and ~300 live inserts into a
//    weighted index, are pinned to golden hashes recorded from the
//    per-pair build loops (one DistanceBetween per pair, every repeat
//    offer of a join pool evaluated), at every SIMD tier;
//  * every pipeline algorithm builds the same graph whether it runs alone
//    or races three other identical builds for the shared thread pool.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "graph/nn_descent.h"
#include "graph/pipeline.h"
#include "graph_test_util.h"
#include "vector/multi_distance.h"
#include "vector/simd/simd.h"

namespace mqa {
namespace {

using ::mqa::testing::GraphHash;
using ::mqa::testing::MakeClusteredStore;
using ::mqa::testing::MakeMultiModalityStore;
using ::mqa::testing::MakeTwoModalityStore;

constexpr SimdLevel kLevels[] = {SimdLevel::kScalar, SimdLevel::kAvx2,
                                 SimdLevel::kAvx512};

/// The perfbench `multimodal` row shape: four 32-dim modalities, all
/// weighted, so every distance is a 4-segment kernel call.
const std::vector<uint32_t> kFourModalities = {32, 32, 32, 32};
const std::vector<float> kFourWeights = {0.4f, 0.3f, 0.2f, 0.1f};

std::unique_ptr<DistanceComputer> FourModalityDistance(
    const VectorStore* store) {
  auto weighted = WeightedMultiDistance::Create(store->schema(), kFourWeights);
  EXPECT_TRUE(weighted.ok());
  return std::make_unique<MultiVectorDistanceComputer>(
      store, *std::move(weighted));
}

GraphBuildConfig FourModalityConfig() {
  GraphBuildConfig config;
  config.algorithm = "mqa-hybrid";
  config.max_degree = 16;
  config.build_beam = 40;
  config.nn_descent_k = 20;
  config.seed = 9;
  return config;
}

uint64_t IndexHash(const GraphIndex& index) {
  uint64_t h = GraphHash(index.graph());
  for (uint32_t e : index.entry_points()) h = h * 31 + e;
  return h;
}

/// A 4-modality weighted mqa-hybrid build over 1500 rows.
uint64_t FourModalityBuildHash() {
  const VectorStore store =
      MakeMultiModalityStore(1500, kFourModalities, /*seed=*/61);
  auto index = BuildGraphIndex(FourModalityConfig(), &store,
                               FourModalityDistance(&store));
  EXPECT_TRUE(index.ok());
  return index.ok() ? IndexHash(**index) : 0;
}

/// A weighted build over 900 rows, then 300 live inserts: every insert
/// prunes its own pool and the backlinks that overflow the degree bound.
uint64_t WeightedInsertHash() {
  const VectorStore full =
      MakeMultiModalityStore(1200, kFourModalities, /*seed=*/67);
  VectorStore store(full.schema());
  for (uint32_t i = 0; i < 900; ++i) (void)store.Add(full.Row(i));
  GraphBuildConfig config = FourModalityConfig();
  config.max_degree = 12;
  auto index = BuildGraphIndex(config, &store, FourModalityDistance(&store));
  EXPECT_TRUE(index.ok());
  if (!index.ok()) return 0;
  for (uint32_t i = 900; i < full.size(); ++i) {
    EXPECT_TRUE(store.Add(full.Row(i)).ok());
    EXPECT_TRUE(InsertIntoGraphIndex(index->get(), &store, i, config).ok());
  }
  return IndexHash(**index);
}

// As with NNDescentGoldenTest, no tier's rounding reaches a decision on
// these stores, so one hash holds at every tier.
TEST(WeightedBuildGoldenTest, FourModalityHybridBuildMatchesAtEverySimdLevel) {
  constexpr uint64_t kGolden = 0xafe05b0a958913f1ull;
  const SimdLevel saved = ActiveSimdLevel();
  for (SimdLevel level : kLevels) {
    if (!CpuSupports(level)) continue;
    ASSERT_TRUE(SetSimdLevel(level).ok());
    const uint64_t got = FourModalityBuildHash();
    EXPECT_EQ(got, kGolden) << SimdLevelName(level) << " got 0x" << std::hex
                            << got;
  }
  ASSERT_TRUE(SetSimdLevel(saved).ok());
}

TEST(WeightedBuildGoldenTest, LiveInsertsMatchAtEverySimdLevel) {
  constexpr uint64_t kGolden = 0xe78fead1dc36dbd6ull;
  const SimdLevel saved = ActiveSimdLevel();
  for (SimdLevel level : kLevels) {
    if (!CpuSupports(level)) continue;
    ASSERT_TRUE(SetSimdLevel(level).ok());
    const uint64_t got = WeightedInsertHash();
    EXPECT_EQ(got, kGolden) << SimdLevelName(level) << " got 0x" << std::hex
                            << got;
  }
  ASSERT_TRUE(SetSimdLevel(saved).ok());
}

uint64_t FlatNNDescentHash() {
  const VectorStore store = MakeClusteredStore(1000, 16, 8, /*seed=*/7);
  FlatDistanceComputer dist(&store, Metric::kL2);
  Rng rng(11);
  auto graph = BuildNNDescentGraph(&dist, 16, 8, &rng);
  EXPECT_TRUE(graph.ok());
  return graph.ok() ? GraphHash(*graph) : 0;
}

uint64_t WeightedNNDescentHash() {
  const VectorStore store = MakeTwoModalityStore(800, /*seed=*/23);
  auto weighted = WeightedMultiDistance::Create(store.schema(), {0.7f, 0.3f});
  EXPECT_TRUE(weighted.ok());
  MultiVectorDistanceComputer dist(&store, *std::move(weighted));
  Rng rng(13);
  auto graph = BuildNNDescentGraph(&dist, 12, 8, &rng);
  EXPECT_TRUE(graph.ok());
  return graph.ok() ? GraphHash(*graph) : 0;
}

TEST(NNDescentGoldenTest, MatchesTheSerialGraphAtEverySimdLevel) {
  // Recorded from the serial NN-Descent (one join loop, inserts in node
  // order) before the joins ran on the thread pool. The tiers round
  // distances differently, but on these stores no rounding difference
  // reaches a top-k boundary, so one pair of hashes holds at every tier.
  constexpr uint64_t kFlatGolden = 0x5c218b4e70b5bce0ull;
  constexpr uint64_t kWeightedGolden = 0x96102bdb37be3e31ull;
  const SimdLevel saved = ActiveSimdLevel();
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (!CpuSupports(level)) continue;
    ASSERT_TRUE(SetSimdLevel(level).ok());
    EXPECT_EQ(FlatNNDescentHash(), kFlatGolden) << SimdLevelName(level);
    EXPECT_EQ(WeightedNNDescentHash(), kWeightedGolden)
        << SimdLevelName(level);
  }
  ASSERT_TRUE(SetSimdLevel(saved).ok());
}

class BuildEquivalenceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BuildEquivalenceTest, RacedBuildsEqualASoloBuild) {
  const VectorStore store = MakeClusteredStore(400, 8, 6, /*seed=*/41);
  GraphBuildConfig config;
  config.algorithm = GetParam();
  config.max_degree = 12;
  config.build_beam = 24;
  config.nn_descent_k = 12;
  config.nn_descent_iters = 4;
  config.seed = 5;
  auto build = [&config, &store]() -> uint64_t {
    auto index = BuildGraphIndex(
        config, &store,
        std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
    if (!index.ok()) return 0;
    uint64_t h = GraphHash((*index)->graph());
    for (uint32_t e : (*index)->entry_points()) h = h * 31 + e;
    return h;
  };

  const uint64_t solo = build();
  ASSERT_NE(solo, 0u);
  EXPECT_EQ(build(), solo) << "a repeated build differs";

  constexpr int kBuilders = 4;
  std::vector<uint64_t> raced(kBuilders, 0);
  std::vector<std::thread> builders;
  builders.reserve(kBuilders);
  for (int b = 0; b < kBuilders; ++b) {
    builders.emplace_back([&raced, &build, b] { raced[b] = build(); });
  }
  for (auto& t : builders) t.join();
  for (int b = 0; b < kBuilders; ++b) {
    EXPECT_EQ(raced[b], solo) << "raced build " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, BuildEquivalenceTest,
    ::testing::Values("kgraph", "nsg", "vamana", "mqa-hybrid"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace mqa
