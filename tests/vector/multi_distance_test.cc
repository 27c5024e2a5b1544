#include "vector/multi_distance.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace mqa {
namespace {

VectorSchema TwoModality() {
  VectorSchema s;
  s.dims = {4, 3};
  return s;
}

TEST(WeightedMultiDistanceTest, CreateValidation) {
  EXPECT_FALSE(
      WeightedMultiDistance::Create(VectorSchema{}, {}).ok());
  EXPECT_FALSE(
      WeightedMultiDistance::Create(TwoModality(), {1.0f}).ok());
  EXPECT_FALSE(
      WeightedMultiDistance::Create(TwoModality(), {1.0f, -0.5f}).ok());
  EXPECT_TRUE(
      WeightedMultiDistance::Create(TwoModality(), {1.0f, 2.0f}).ok());
}

TEST(WeightedMultiDistanceTest, ExactIsWeightedSumOfBlocks) {
  auto dist = WeightedMultiDistance::Create(TwoModality(), {2.0f, 0.5f});
  ASSERT_TRUE(dist.ok());
  // q differs in block 0 by (1,0,0,0) and block 1 by (0,2,0).
  const Vector q = {1, 0, 0, 0, 0, 2, 0};
  const Vector o = {0, 0, 0, 0, 0, 0, 0};
  EXPECT_FLOAT_EQ(dist->Exact(q.data(), o.data()), 2.0f * 1 + 0.5f * 4);
}

TEST(WeightedMultiDistanceTest, ZeroWeightIgnoresModality) {
  auto dist = WeightedMultiDistance::Create(TwoModality(), {1.0f, 0.0f});
  ASSERT_TRUE(dist.ok());
  const Vector q = {0, 0, 0, 0, 100, 100, 100};
  const Vector o = {0, 0, 0, 0, 0, 0, 0};
  EXPECT_FLOAT_EQ(dist->Exact(q.data(), o.data()), 0.0f);
}

TEST(WeightedMultiDistanceTest, PrunedMatchesExactUnderLooseBound) {
  Rng rng(5);
  auto dist = WeightedMultiDistance::Create(TwoModality(), {1.5f, 0.7f});
  ASSERT_TRUE(dist.ok());
  for (int t = 0; t < 100; ++t) {
    Vector q(7), o(7);
    for (auto& x : q) x = static_cast<float>(rng.Gaussian());
    for (auto& x : o) x = static_cast<float>(rng.Gaussian());
    const float exact = dist->Exact(q.data(), o.data());
    DistanceTally stats;
    const float pruned =
        dist->Pruned(q.data(), o.data(), exact + 1.0f, &stats);
    EXPECT_EQ(pruned, exact);
    EXPECT_EQ(stats.full_computations, 1u);
    EXPECT_EQ(stats.pruned_computations, 0u);
  }
}

TEST(WeightedMultiDistanceTest, PrunedAbandonsAndCounts) {
  VectorSchema schema;
  schema.dims = {32, 32};
  auto dist = WeightedMultiDistance::Create(schema, {1.0f, 1.0f});
  ASSERT_TRUE(dist.ok());
  Vector q(64, 0.0f), o(64, 1.0f);  // true distance = 64
  DistanceTally stats;
  const float d = dist->Pruned(q.data(), o.data(), 5.0f, &stats);
  EXPECT_GT(d, 5.0f);
  EXPECT_EQ(stats.pruned_computations, 1u);
  EXPECT_EQ(stats.full_computations, 0u);
  EXPECT_LT(stats.dims_scanned, 64u);
}

TEST(WeightedMultiDistanceTest, SetWeightsValidatesAndApplies) {
  auto dist = WeightedMultiDistance::Create(TwoModality(), {1.0f, 1.0f});
  ASSERT_TRUE(dist.ok());
  EXPECT_FALSE(dist->SetWeights({1.0f}).ok());
  EXPECT_FALSE(dist->SetWeights({1.0f, -1.0f}).ok());
  ASSERT_TRUE(dist->SetWeights({0.0f, 3.0f}).ok());
  const Vector q = {1, 1, 1, 1, 0, 0, 1};
  const Vector o = {0, 0, 0, 0, 0, 0, 0};
  EXPECT_FLOAT_EQ(dist->Exact(q.data(), o.data()), 3.0f);
}

TEST(FlattenMultiVectorTest, ConcatenatesInSchemaOrder) {
  MultiVector mv;
  mv.parts = {{1, 2, 3, 4}, {5, 6, 7}};
  auto flat = FlattenMultiVector(TwoModality(), mv);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(*flat, (Vector{1, 2, 3, 4, 5, 6, 7}));
}

TEST(FlattenMultiVectorTest, RejectsMismatchedShapes) {
  MultiVector wrong_count;
  wrong_count.parts = {{1, 2, 3, 4}};
  EXPECT_FALSE(FlattenMultiVector(TwoModality(), wrong_count).ok());
  MultiVector wrong_dim;
  wrong_dim.parts = {{1, 2, 3}, {5, 6, 7}};
  EXPECT_FALSE(FlattenMultiVector(TwoModality(), wrong_dim).ok());
}

TEST(DistanceStatsTest, ResetClears) {
  DistanceStats stats;
  stats.full_computations = 5;
  stats.pruned_computations = 3;
  stats.dims_scanned = 100;
  EXPECT_EQ(stats.TotalComputations(), 8u);
  stats.Reset();
  EXPECT_EQ(stats.TotalComputations(), 0u);
  EXPECT_EQ(stats.dims_scanned, 0u);
}

TEST(DistanceStatsTest, AddFoldsATallyIn) {
  DistanceStats stats;
  stats.full_computations = 5;
  DistanceTally tally;
  tally.full_computations = 2;
  tally.pruned_computations = 3;
  tally.dims_scanned = 40;
  stats.Add(tally);
  stats.Add(tally);
  EXPECT_EQ(stats.full_computations, 9u);
  EXPECT_EQ(stats.pruned_computations, 6u);
  EXPECT_EQ(stats.dims_scanned, 80u);
}

// Property: for any weights and vectors, Pruned equals Exact bit for bit
// when the exact distance is within the bound, and exceeds the bound
// otherwise.
class MultiDistanceSweep
    : public ::testing::TestWithParam<std::tuple<int, float>> {};

TEST_P(MultiDistanceSweep, PrunedIsSound) {
  const int num_m = std::get<0>(GetParam());
  const float w0 = std::get<1>(GetParam());
  VectorSchema schema;
  std::vector<float> weights;
  for (int m = 0; m < num_m; ++m) {
    schema.dims.push_back(8);
    weights.push_back(m == 0 ? w0 : 1.0f);
  }
  auto dist = WeightedMultiDistance::Create(schema, weights);
  ASSERT_TRUE(dist.ok());
  Rng rng(num_m * 31 + static_cast<int>(w0 * 10));
  const size_t dim = schema.TotalDim();
  for (int t = 0; t < 30; ++t) {
    Vector a(dim), b(dim);
    for (auto& x : a) x = static_cast<float>(rng.Gaussian());
    for (auto& x : b) x = static_cast<float>(rng.Gaussian());
    const float exact = dist->Exact(a.data(), b.data());
    const float bound = static_cast<float>(rng.UniformDouble() * dim);
    const float pruned = dist->Pruned(a.data(), b.data(), bound, nullptr);
    if (exact <= bound) {
      EXPECT_EQ(pruned, exact);  // running sums only grow: no abandon
    } else {
      EXPECT_GT(pruned, bound);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultiDistanceSweep,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(0.0f, 0.5f, 1.0f, 3.0f)));

}  // namespace
}  // namespace mqa
