#include "graph/hnsw.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "graph_test_util.h"

namespace mqa {
namespace {

using ::mqa::testing::ExactKnn;
using ::mqa::testing::MakeClusteredStore;
using ::mqa::testing::Recall;

TEST(HnswTest, BuildValidatesInput) {
  VectorStore store = MakeClusteredStore(10, 4, 2, 1);
  HnswConfig config;
  EXPECT_FALSE(HnswIndex::Build(config, &store, nullptr).ok());
  EXPECT_FALSE(HnswIndex::Build(config, nullptr, nullptr).ok());
  config.m = 1;
  EXPECT_FALSE(
      HnswIndex::Build(config, &store,
                       std::make_unique<FlatDistanceComputer>(&store,
                                                              Metric::kL2))
          .ok());
  VectorSchema schema;
  schema.dims = {4};
  VectorStore empty(schema);
  config.m = 16;
  EXPECT_FALSE(
      HnswIndex::Build(config, &empty,
                       std::make_unique<FlatDistanceComputer>(&empty,
                                                              Metric::kL2))
          .ok());
}

TEST(HnswTest, HighRecallOnClusteredData) {
  std::vector<Vector> queries;
  VectorStore store = MakeClusteredStore(1000, 8, 8, 2, &queries, 20);
  HnswConfig config;
  config.m = 12;
  config.ef_construction = 80;
  auto index = HnswIndex::Build(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(index.ok());
  SearchParams params;
  params.k = 10;
  params.beam_width = 64;
  double recall_sum = 0;
  for (const Vector& q : queries) {
    SearchStats stats;
    auto got = (*index)->Search(q.data(), params, &stats);
    ASSERT_TRUE(got.ok());
    recall_sum += Recall(*got, ExactKnn(store, q, 10));
    // Far fewer distance computations than brute force.
    EXPECT_LT(stats.dist_comps, 700u);
  }
  EXPECT_GE(recall_sum / queries.size(), 0.95);
}

TEST(HnswTest, SingleElementIndex) {
  VectorSchema schema;
  schema.dims = {4};
  VectorStore store(schema);
  ASSERT_TRUE(store.Add({1, 2, 3, 4}).ok());
  HnswConfig config;
  auto index = HnswIndex::Build(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(index.ok());
  const Vector q = {0, 0, 0, 0};
  SearchParams params;
  params.k = 5;
  auto got = (*index)->Search(q.data(), params, nullptr);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 1u);
  EXPECT_EQ((*got)[0].id, 0u);
}

TEST(HnswTest, LevelsAreAssignedAndLinked) {
  VectorStore store = MakeClusteredStore(800, 8, 4, 3);
  HnswConfig config;
  config.m = 8;
  auto index = HnswIndex::Build(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(index.ok());
  // With 800 points and m=8, some node should be above layer 0.
  EXPECT_GE((*index)->max_level(), 1);
  EXPECT_EQ((*index)->size(), 800u);
  EXPECT_GT((*index)->MemoryBytes(), 0u);
  EXPECT_EQ((*index)->name(), "hnsw");
}

TEST(HnswTest, DegreeBoundsRespected) {
  VectorStore store = MakeClusteredStore(600, 8, 4, 4);
  HnswConfig config;
  config.m = 6;
  auto index = HnswIndex::Build(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(index.ok());
  for (uint32_t u = 0; u < 600; ++u) {
    EXPECT_LE((*index)->links(u, 0).size(), config.m * 2);
  }
}

TEST(HnswTest, RejectsZeroK) {
  VectorStore store = MakeClusteredStore(50, 4, 2, 5);
  auto index = HnswIndex::Build(
      HnswConfig{}, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(index.ok());
  const Vector q(4, 0.0f);
  SearchParams params;
  params.k = 0;
  EXPECT_FALSE((*index)->Search(q.data(), params, nullptr).ok());
}

TEST(HnswTest, SaveLoadPreservesSearchBehaviour) {
  VectorStore store = MakeClusteredStore(400, 8, 4, 91);
  HnswConfig config;
  config.m = 8;
  auto built = HnswIndex::Build(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(built.ok());
  std::stringstream blob;
  ASSERT_TRUE((*built)->Save(blob).ok());
  auto loaded = HnswIndex::Load(
      blob, config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->size(), 400u);
  EXPECT_EQ((*loaded)->max_level(), (*built)->max_level());
  SearchParams params;
  params.k = 10;
  for (uint32_t q : {0u, 111u, 399u}) {
    const Vector query = store.Row(q);
    auto a = (*built)->Search(query.data(), params, nullptr);
    auto b = (*loaded)->Search(query.data(), params, nullptr);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
  }
}

TEST(HnswTest, LoadRejectsGarbageAndMismatchedStore) {
  std::stringstream garbage("not an index");
  VectorStore store = MakeClusteredStore(50, 8, 4, 92);
  EXPECT_FALSE(
      HnswIndex::Load(garbage, HnswConfig{}, &store,
                      std::make_unique<FlatDistanceComputer>(&store,
                                                             Metric::kL2))
          .ok());
  auto built = HnswIndex::Build(
      HnswConfig{}, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(built.ok());
  std::stringstream blob;
  ASSERT_TRUE((*built)->Save(blob).ok());
  VectorStore other = MakeClusteredStore(60, 8, 4, 93);
  EXPECT_FALSE(
      HnswIndex::Load(blob, HnswConfig{}, &other,
                      std::make_unique<FlatDistanceComputer>(&other,
                                                             Metric::kL2))
          .ok());
}

/// A saved HNSW blob (HnswIndex::Save) with its layout parsed: header
/// words, then per node its level and, per layer, a degree and the ids.
class HnswBlob {
 public:
  explicit HnswBlob(std::string bytes) : bytes_(std::move(bytes)) {
    const uint32_t n = Word(4);
    size_t off = 16;
    for (uint32_t i = 0; i < n; ++i) {
      levels_.push_back(static_cast<int>(Word(off)));
      off += 4;
      links_.emplace_back();
      for (int layer = 0; layer <= levels_.back(); ++layer) {
        links_.back().push_back(off + 4);
        off += 4 + 4 * static_cast<size_t>(Word(off));
      }
    }
  }

  static constexpr size_t kEntryPoint = 8;
  static constexpr size_t kMaxLevel = 12;

  uint32_t Word(size_t off) const {
    uint32_t v = 0;
    std::memcpy(&v, bytes_.data() + off, sizeof(v));
    return v;
  }
  /// A copy of the blob with the word at `off` replaced.
  std::string With(size_t off, uint32_t value) const {
    std::string out = bytes_;
    std::memcpy(out.data() + off, &value, sizeof(value));
    return out;
  }
  const std::string& bytes() const { return bytes_; }
  int level(uint32_t node) const { return levels_[node]; }
  uint32_t degree(uint32_t node, int layer) const {
    return Word(links_[node][layer] - 4);
  }
  /// Offset of the first id `node` links to on `layer`.
  size_t links(uint32_t node, int layer) const { return links_[node][layer]; }
  uint32_t num_nodes() const { return static_cast<uint32_t>(levels_.size()); }

 private:
  std::string bytes_;
  std::vector<int> levels_;
  std::vector<std::vector<size_t>> links_;
};

TEST(HnswTest, LoadRejectsIdsThatWouldSendASearchOutOfRange) {
  VectorStore store = MakeClusteredStore(120, 8, 4, 95);
  HnswConfig config;
  config.m = 4;
  auto built = HnswIndex::Build(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(built.ok());
  std::stringstream out;
  ASSERT_TRUE((*built)->Save(out).ok());
  const HnswBlob blob(out.str());
  auto load = [&](const std::string& bytes) {
    std::stringstream in(bytes);
    return HnswIndex::Load(
               in, config, &store,
               std::make_unique<FlatDistanceComputer>(&store, Metric::kL2))
        .status();
  };
  ASSERT_TRUE(load(blob.bytes()).ok());

  const uint32_t n = blob.num_nodes();
  const uint32_t top = blob.Word(HnswBlob::kMaxLevel);
  ASSERT_GE(top, 1u) << "the fixture needs a second layer";
  EXPECT_EQ(load(blob.With(HnswBlob::kEntryPoint, n)).code(),
            StatusCode::kIoError);
  EXPECT_EQ(load(blob.With(HnswBlob::kMaxLevel, top + 1)).code(),
            StatusCode::kIoError);

  uint32_t linked = n;  // a node with a layer-0 link
  uint32_t upper = n;   // a node with a layer-1 link
  uint32_t ground = n;  // a node that lives on layer 0 only
  for (uint32_t i = 0; i < n; ++i) {
    if (linked == n && blob.degree(i, 0) > 0) linked = i;
    if (upper == n && blob.level(i) >= 1 && blob.degree(i, 1) > 0) upper = i;
    if (ground == n && blob.level(i) == 0) ground = i;
  }
  ASSERT_LT(linked, n);
  ASSERT_LT(upper, n);
  ASSERT_LT(ground, n);
  EXPECT_EQ(load(blob.With(blob.links(linked, 0), 1u << 30)).code(),
            StatusCode::kIoError);
  EXPECT_EQ(load(blob.With(blob.links(upper, 1), ground)).code(),
            StatusCode::kIoError);
}

TEST(HnswTest, InsertAppendedRequiresGrownStore) {
  VectorStore store = MakeClusteredStore(60, 8, 4, 94);
  auto index = HnswIndex::Build(
      HnswConfig{}, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE((*index)->InsertAppended().ok());  // nothing appended yet
  ASSERT_TRUE(store.Add(store.Row(0)).ok());
  ASSERT_TRUE((*index)->InsertAppended().ok());
  EXPECT_EQ((*index)->size(), 61u);
}

TEST(HnswTest, DeterministicGivenSeed) {
  VectorStore store = MakeClusteredStore(300, 8, 4, 6);
  HnswConfig config;
  config.seed = 7;
  auto a = HnswIndex::Build(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  auto b = HnswIndex::Build(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(a.ok() && b.ok());
  const Vector q = store.Row(42);
  SearchParams params;
  params.k = 10;
  auto ra = (*a)->Search(q.data(), params, nullptr);
  auto rb = (*b)->Search(q.data(), params, nullptr);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(*ra, *rb);
}

}  // namespace
}  // namespace mqa
