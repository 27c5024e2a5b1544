#include "diskindex/disk_index.h"

#include <gtest/gtest.h>

#include "graph/pipeline.h"
#include "../graph/graph_test_util.h"

namespace mqa {
namespace {

using ::mqa::testing::ExactKnn;
using ::mqa::testing::MakeClusteredStore;
using ::mqa::testing::Recall;

class DiskIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<VectorStore>(
        MakeClusteredStore(800, 8, 8, 21, &queries_, 10));
    GraphBuildConfig config;
    config.algorithm = "mqa-hybrid";
    config.max_degree = 12;
    auto index = BuildGraphIndex(
        config, store_.get(),
        std::make_unique<FlatDistanceComputer>(store_.get(), Metric::kL2));
    ASSERT_TRUE(index.ok());
    mem_index_ = std::move(index).Value();
  }

  WeightedMultiDistance MakeDistance() {
    auto wd = WeightedMultiDistance::Create(store_->schema(), {1.0f});
    EXPECT_TRUE(wd.ok());
    return std::move(wd).Value();
  }

  std::unique_ptr<VectorStore> store_;
  std::unique_ptr<GraphIndex> mem_index_;
  std::vector<Vector> queries_;
};

TEST_F(DiskIndexTest, CreateValidates) {
  DiskIndexConfig config;
  config.layout = "zigzag";
  EXPECT_FALSE(
      DiskGraphIndex::Create(config, *mem_index_, *store_, MakeDistance())
          .ok());
  config = DiskIndexConfig{};
  config.page_size = 16;  // record cannot fit
  EXPECT_FALSE(
      DiskGraphIndex::Create(config, *mem_index_, *store_, MakeDistance())
          .ok());
}

TEST_F(DiskIndexTest, SearchMatchesMemoryIndexQuality) {
  DiskIndexConfig config;
  auto disk =
      DiskGraphIndex::Create(config, *mem_index_, *store_, MakeDistance());
  ASSERT_TRUE(disk.ok());
  SearchParams params;
  params.k = 10;
  params.beam_width = 64;
  double recall_sum = 0;
  for (const Vector& q : queries_) {
    auto got = (*disk)->Search(q.data(), params, nullptr);
    ASSERT_TRUE(got.ok());
    recall_sum += Recall(*got, ExactKnn(*store_, q, 10));
  }
  EXPECT_GE(recall_sum / queries_.size(), 0.9);
}

TEST_F(DiskIndexTest, CountsPageReadsAndCacheHits) {
  DiskIndexConfig config;
  config.cache_pages = 4;
  auto disk =
      DiskGraphIndex::Create(config, *mem_index_, *store_, MakeDistance());
  ASSERT_TRUE(disk.ok());
  SearchParams params;
  params.k = 5;
  ASSERT_TRUE((*disk)->Search(queries_[0].data(), params, nullptr).ok());
  const DiskIoStats& stats = (*disk)->io_stats();
  EXPECT_GT(stats.page_reads, 0u);
  EXPECT_EQ(stats.bytes_read, stats.page_reads * config.page_size);
  (*disk)->ResetIoStats();
  EXPECT_EQ((*disk)->io_stats().page_reads, 0u);
}

TEST_F(DiskIndexTest, WarmCacheReducesReads) {
  DiskIndexConfig config;
  config.cache_pages = 100000;  // effectively infinite
  auto disk =
      DiskGraphIndex::Create(config, *mem_index_, *store_, MakeDistance());
  ASSERT_TRUE(disk.ok());
  SearchParams params;
  params.k = 5;
  ASSERT_TRUE((*disk)->Search(queries_[0].data(), params, nullptr).ok());
  const uint64_t cold = (*disk)->io_stats().page_reads;
  (*disk)->ResetIoStats();
  ASSERT_TRUE((*disk)->Search(queries_[0].data(), params, nullptr).ok());
  EXPECT_EQ((*disk)->io_stats().page_reads, 0u);  // all cached
  EXPECT_GT((*disk)->io_stats().cache_hits, 0u);
  EXPECT_GT(cold, 0u);
  (*disk)->ClearCache();
  (*disk)->ResetIoStats();
  ASSERT_TRUE((*disk)->Search(queries_[0].data(), params, nullptr).ok());
  EXPECT_GT((*disk)->io_stats().page_reads, 0u);  // cold again
}

TEST_F(DiskIndexTest, BfsLayoutNeedsFewerReadsThanIdLayout) {
  // The corpus interleaves clusters by id (i % clusters), so id order is
  // adversarial and BFS packing should clearly win — Starling's thesis.
  uint64_t reads_by_layout[2] = {0, 0};
  const char* layouts[2] = {"id", "bfs"};
  for (int l = 0; l < 2; ++l) {
    DiskIndexConfig config;
    config.layout = layouts[l];
    config.cache_pages = 8;
    auto disk =
        DiskGraphIndex::Create(config, *mem_index_, *store_, MakeDistance());
    ASSERT_TRUE(disk.ok());
    SearchParams params;
    params.k = 10;
    params.beam_width = 48;
    for (const Vector& q : queries_) {
      (*disk)->ClearCache();
      ASSERT_TRUE((*disk)->Search(q.data(), params, nullptr).ok());
    }
    reads_by_layout[l] = (*disk)->io_stats().page_reads;
  }
  EXPECT_LT(reads_by_layout[1], reads_by_layout[0]);
}

TEST_F(DiskIndexTest, RecordGeometryIsConsistent) {
  DiskIndexConfig config;
  auto disk =
      DiskGraphIndex::Create(config, *mem_index_, *store_, MakeDistance());
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ((*disk)->size(), 800u);
  EXPECT_GE((*disk)->nodes_per_page(), 1u);
  EXPECT_EQ((*disk)->num_pages(),
            (800 + (*disk)->nodes_per_page() - 1) / (*disk)->nodes_per_page());
  EXPECT_EQ((*disk)->name(), "disk-bfs");
}

TEST_F(DiskIndexTest, MemoryPivotsReduceColdReads) {
  uint64_t reads[2] = {0, 0};
  double recall[2] = {0, 0};
  const uint32_t pivot_counts[2] = {0, 200};
  for (int v = 0; v < 2; ++v) {
    DiskIndexConfig config;
    config.cache_pages = 16;
    config.memory_pivots = pivot_counts[v];
    auto disk =
        DiskGraphIndex::Create(config, *mem_index_, *store_, MakeDistance());
    ASSERT_TRUE(disk.ok());
    SearchParams params;
    params.k = 10;
    params.beam_width = 48;
    for (const Vector& q : queries_) {
      (*disk)->ClearCache();
      auto r = (*disk)->Search(q.data(), params, nullptr);
      ASSERT_TRUE(r.ok());
      recall[v] += Recall(*r, ExactKnn(*store_, q, 10));
    }
    reads[v] = (*disk)->io_stats().page_reads;
  }
  // On a tiny index the traversal touches most pages either way, so the
  // win can vanish; never worse, and the large-scale effect is measured in
  // bench_disk_index (354 -> 268 reads/query at N = 20k).
  EXPECT_LE(reads[1], reads[0]);
  EXPECT_GE(recall[1], recall[0] - 0.5);  // quality essentially preserved
}

TEST_F(DiskIndexTest, PivotMemoryAccounted) {
  DiskIndexConfig with;
  with.memory_pivots = 100;
  DiskIndexConfig without;
  auto a = DiskGraphIndex::Create(with, *mem_index_, *store_, MakeDistance());
  auto b =
      DiskGraphIndex::Create(without, *mem_index_, *store_, MakeDistance());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ((*a)->MemoryBytes() - (*b)->MemoryBytes(),
            100u * store_->row_dim() * sizeof(float));
}

TEST(DiskIndexLatencyTest, ModeledLatencyScalesWithReads) {
  EXPECT_DOUBLE_EQ(DiskGraphIndex::ModeledLatencyMs(0), 0.0);
  EXPECT_DOUBLE_EQ(DiskGraphIndex::ModeledLatencyMs(10, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(DiskGraphIndex::ModeledLatencyMs(10, 50.0), 0.5);
}

}  // namespace
}  // namespace mqa
