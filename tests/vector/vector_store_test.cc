#include "vector/vector_store.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/random.h"

namespace mqa {
namespace {

VectorSchema TwoModality() {
  VectorSchema s;
  s.dims = {2, 3};
  return s;
}

TEST(VectorStoreTest, AddAndRead) {
  VectorStore store(TwoModality());
  auto id0 = store.Add({1, 2, 3, 4, 5});
  auto id1 = store.Add({6, 7, 8, 9, 10});
  ASSERT_TRUE(id0.ok());
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(*id0, 0u);
  EXPECT_EQ(*id1, 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.Row(1), (Vector{6, 7, 8, 9, 10}));
  EXPECT_FLOAT_EQ(store.data(0)[4], 5.0f);
}

TEST(VectorStoreTest, RejectsWrongLength) {
  VectorStore store(TwoModality());
  EXPECT_FALSE(store.Add({1, 2, 3}).ok());
  EXPECT_EQ(store.size(), 0u);
}

TEST(VectorStoreTest, AddMultiVectorFlattens) {
  VectorStore store(TwoModality());
  MultiVector mv;
  mv.parts = {{1, 2}, {3, 4, 5}};
  ASSERT_TRUE(store.AddMultiVector(mv).ok());
  EXPECT_EQ(store.Row(0), (Vector{1, 2, 3, 4, 5}));
  MultiVector bad;
  bad.parts = {{1}, {3, 4, 5}};
  EXPECT_FALSE(store.AddMultiVector(bad).ok());
}

TEST(VectorStoreTest, SaveLoadRoundTrip) {
  VectorStore store(TwoModality());
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    Vector v(5);
    for (auto& x : v) x = static_cast<float>(rng.Gaussian());
    ASSERT_TRUE(store.Add(v).ok());
  }
  std::stringstream buf;
  ASSERT_TRUE(store.Save(buf).ok());
  auto loaded = VectorStore::Load(buf);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), store.size());
  EXPECT_EQ(loaded->schema(), store.schema());
  for (uint32_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(loaded->Row(i), store.Row(i));
  }
}

TEST(VectorStoreTest, LoadRejectsGarbage) {
  std::stringstream buf("not a store");
  EXPECT_FALSE(VectorStore::Load(buf).ok());
}

TEST(VectorStoreTest, LoadRejectsTruncated) {
  VectorStore store(TwoModality());
  ASSERT_TRUE(store.Add({1, 2, 3, 4, 5}).ok());
  std::stringstream buf;
  ASSERT_TRUE(store.Save(buf).ok());
  std::string data = buf.str();
  data.resize(data.size() / 2);
  std::stringstream cut(data);
  EXPECT_FALSE(VectorStore::Load(cut).ok());
}

TEST(VectorStoreTest, LoadRejectsAHugeRowCountWithoutAllocatingIt) {
  // A header that claims 2^40 rows of 5 floats, and no rows.
  std::string blob;
  auto put = [&blob](const auto& v) {
    blob.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  VectorStore store(TwoModality());
  std::stringstream header;
  ASSERT_TRUE(store.Save(header).ok());
  blob = header.str();
  blob.resize(blob.size() - sizeof(uint64_t));  // drop the row count
  put(uint64_t{1} << 40);
  std::stringstream in(blob);
  auto loaded = VectorStore::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

/// A store header with no rows after it: the magic, the dims and a row
/// count.
std::string StoreHeader(const std::vector<uint32_t>& dims, uint64_t rows) {
  std::string blob;
  auto put = [&blob](const auto& v) {
    blob.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(uint32_t{0x4d514156});  // "MQAV"
  put(static_cast<uint32_t>(dims.size()));
  for (uint32_t d : dims) put(d);
  put(rows);
  return blob;
}

TEST(VectorStoreTest, LoadRejectsAZeroDimensionAtOnce) {
  // Rows of zero floats read zero bytes, so a huge row count would never
  // meet the truncation check.
  std::stringstream in(StoreHeader({0}, 50'000'000'000ull));
  auto loaded = VectorStore::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(VectorStoreTest, LoadRejectsARowWiderThanTheFormatWithoutAllocatingIt) {
  for (const std::vector<uint32_t>& dims :
       {std::vector<uint32_t>{0xFFFFFFFFu},
        std::vector<uint32_t>{1u << 21, 1u << 21, 1}}) {
    std::stringstream in(StoreHeader(dims, 1));
    auto loaded = VectorStore::Load(in);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }
}

TEST(VectorStoreTest, LoadRejectsMoreRowsThanIdsCanName) {
  std::stringstream in(StoreHeader({2}, uint64_t{UINT32_MAX} + 1));
  auto loaded = VectorStore::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("id range"), std::string::npos);
}

TEST(FlatDistanceComputerTest, ComputesMetricDistances) {
  VectorSchema s;
  s.dims = {2};
  VectorStore store(s);
  ASSERT_TRUE(store.Add({0, 0}).ok());
  ASSERT_TRUE(store.Add({3, 4}).ok());
  FlatDistanceComputer dist(&store, Metric::kL2);
  const Vector q = {0, 0};
  EXPECT_FLOAT_EQ(dist.Distance(q.data(), 1, nullptr), 25.0f);
  EXPECT_FLOAT_EQ(dist.DistanceBetween(0, 1), 25.0f);
  EXPECT_EQ(dist.size(), 2u);
  EXPECT_EQ(dist.dim(), 2u);
}

TEST(MultiVectorDistanceComputerTest, TracksStatsOfExactDistances) {
  VectorStore store(TwoModality());
  ASSERT_TRUE(store.Add({0, 0, 0, 0, 0}).ok());
  ASSERT_TRUE(store.Add({10, 10, 10, 10, 10}).ok());
  auto wd = WeightedMultiDistance::Create(TwoModality(), {1.0f, 1.0f});
  ASSERT_TRUE(wd.ok());

  MultiVectorDistanceComputer dist(&store, *wd);
  const Vector q(5, 0.0f);
  DistanceContext ctx;
  EXPECT_FLOAT_EQ(dist.Distance(q.data(), 1, &ctx), 500.0f);
  EXPECT_FLOAT_EQ(dist.Distance(q.data(), 0, &ctx), 0.0f);
  // Every call scans the whole row and counts as full.
  EXPECT_EQ(ctx.tally.full_computations, 2u);
  EXPECT_EQ(ctx.tally.pruned_computations, 0u);
  EXPECT_EQ(ctx.tally.dims_scanned, 10u);
  // The shared stats move only when a search hands its tally over.
  EXPECT_EQ(dist.stats().TotalComputations(), 0u);
  dist.AddTally(ctx.tally);
  EXPECT_EQ(dist.stats().full_computations, 2u);
  EXPECT_EQ(dist.stats().dims_scanned, 10u);
  // Without a context the call is not counted.
  EXPECT_FLOAT_EQ(dist.Distance(q.data(), 1, nullptr), 500.0f);
  EXPECT_EQ(dist.stats().TotalComputations(), 2u);
  dist.ResetStats();
  EXPECT_EQ(dist.stats().TotalComputations(), 0u);
}

TEST(VectorStoreLayoutTest, RowsAreSimdAligned) {
  VectorStore store(TwoModality());  // row_dim 5, not a stride multiple
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(store.Add({1.0f * i, 2, 3, 4, 5}).ok());
  }
  EXPECT_GE(store.row_stride(), store.row_dim());
  EXPECT_EQ(store.row_stride() % VectorStore::kRowAlignFloats, 0u);
  for (uint32_t id = 0; id < store.size(); ++id) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(store.data(id)) % kSimdAlignment,
              0u)
        << "row " << id;
  }
}

TEST(VectorStoreLayoutTest, PaddingIsZeroed) {
  VectorStore store(TwoModality());
  ASSERT_TRUE(store.Add({1, 2, 3, 4, 5}).ok());
  ASSERT_TRUE(store.Add({6, 7, 8, 9, 10}).ok());
  for (uint32_t id = 0; id < store.size(); ++id) {
    const float* row = store.data(id);
    for (size_t j = store.row_dim(); j < store.row_stride(); ++j) {
      EXPECT_EQ(row[j], 0.0f) << "row " << id << " pad " << j;
    }
  }
  // Rows themselves are untouched by the padding.
  EXPECT_EQ(store.Row(1), (Vector{6, 7, 8, 9, 10}));
}

TEST(MultiVectorDistanceComputerTest, SetWeightsChangesDistances) {
  VectorStore store(TwoModality());
  ASSERT_TRUE(store.Add({1, 0, 0, 0, 0}).ok());
  auto wd = WeightedMultiDistance::Create(TwoModality(), {1.0f, 1.0f});
  ASSERT_TRUE(wd.ok());
  MultiVectorDistanceComputer dist(&store, *wd);
  const Vector q(5, 0.0f);
  EXPECT_FLOAT_EQ(dist.Distance(q.data(), 0, nullptr), 1.0f);
  ASSERT_TRUE(dist.SetWeights({4.0f, 1.0f}).ok());
  EXPECT_FLOAT_EQ(dist.Distance(q.data(), 0, nullptr), 4.0f);
  EXPECT_FALSE(dist.SetWeights({1.0f, -1.0f}).ok());
  EXPECT_FLOAT_EQ(dist.Distance(q.data(), 0, nullptr), 4.0f);
}

TEST(MultiVectorDistanceComputerTest, ContextWeightsScoreOneSearchOnly) {
  VectorStore store(TwoModality());
  ASSERT_TRUE(store.Add({1, 0, 0, 2, 0}).ok());
  auto wd = WeightedMultiDistance::Create(TwoModality(), {1.0f, 1.0f});
  auto skewed = WeightedMultiDistance::Create(TwoModality(), {4.0f, 0.0f});
  ASSERT_TRUE(wd.ok() && skewed.ok());
  MultiVectorDistanceComputer dist(&store, *wd);
  const Vector q(5, 0.0f);
  // A context with its own distance scores through it...
  DistanceContext ctx{&*skewed, {}};
  EXPECT_FLOAT_EQ(dist.Distance(q.data(), 0, &ctx), 4.0f);
  EXPECT_EQ(ctx.tally.full_computations, 1u);
  // ...and leaves the computer's default weights as they were.
  EXPECT_FLOAT_EQ(dist.Distance(q.data(), 0, nullptr), 5.0f);
  DistanceContext plain;
  EXPECT_FLOAT_EQ(dist.Distance(q.data(), 0, &plain), 5.0f);
  EXPECT_EQ(dist.weighted_distance().weights(),
            (std::vector<float>{1.0f, 1.0f}));
}

}  // namespace
}  // namespace mqa
