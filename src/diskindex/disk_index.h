#ifndef MQA_DISKINDEX_DISK_INDEX_H_
#define MQA_DISKINDEX_DISK_INDEX_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/sync.h"
#include "graph/index.h"
#include "graph/search.h"
#include "vector/multi_distance.h"
#include "vector/vector_store.h"

namespace mqa {

/// Configuration of the disk-resident graph index (Starling stand-in).
struct DiskIndexConfig {
  size_t page_size = 4096;   ///< block size in bytes
  size_t cache_pages = 64;   ///< LRU page-cache capacity
  /// Block layout: "id" stores nodes in id order (the naive baseline);
  /// "bfs" packs BFS-adjacent nodes into the same block so that graph
  /// neighborhoods are co-located (Starling's block-layout idea).
  std::string layout = "bfs";
  /// Size of the in-memory navigation sample (Starling's in-memory
  /// navigation graph, reduced to its essence): that many node vectors are
  /// kept in RAM and scanned I/O-free at query start, and the best ones
  /// seed the on-disk traversal much closer to the answer. 0 disables.
  uint32_t memory_pivots = 0;
  /// Resilience: failed page reads tolerated per query (fault point
  /// "diskindex/read_page"). While failures stay within the budget, the
  /// failing page is skipped and the traversal routes around it; once the
  /// budget is exceeded the query stops paying for new reads and serves
  /// cache-only partial results, flagged in SearchStats::partial.
  uint64_t io_error_budget = 8;
};

/// Cumulative I/O counters of a DiskGraphIndex. Atomic (mirroring
/// DistanceStats): concurrent queries through one shared index bump these
/// from multiple threads; relaxed ordering suffices for counters, and the
/// totals are exact once searches quiesce.
struct DiskIoStats {
  std::atomic<uint64_t> page_reads{0};  ///< cache misses = disk reads
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> io_errors{0};   ///< injected/failed page reads

  DiskIoStats() = default;
  DiskIoStats(const DiskIoStats& other) { CopyFrom(other); }
  DiskIoStats& operator=(const DiskIoStats& other) {
    CopyFrom(other);
    return *this;
  }

  void Reset() {
    page_reads = 0;
    cache_hits = 0;
    bytes_read = 0;
    io_errors = 0;
  }

 private:
  void CopyFrom(const DiskIoStats& other) {
    page_reads.store(other.page_reads.load());
    cache_hits.store(other.cache_hits.load());
    bytes_read.store(other.bytes_read.load());
    io_errors.store(other.io_errors.load());
  }
};

/// A disk-resident navigation-graph index: every node's record (vector +
/// adjacency list) lives in a fixed-size block on a simulated block
/// device; queries run beam search, paying one page read per cache miss.
/// Reproduces the system behaviour Starling optimizes: the number of page
/// reads — not distance computations — dominates query latency on disk.
class DiskGraphIndex : public VectorIndex {
 public:
  /// Packs an in-memory graph index (graph + vectors) into pages.
  /// `weighted` defines the distance over the on-disk vectors. The source
  /// index and store are only read during construction.
  static Result<std::unique_ptr<DiskGraphIndex>> Create(
      const DiskIndexConfig& config, const GraphIndex& mem_index,
      const VectorStore& store, WeightedMultiDistance weighted);

  Result<std::vector<Neighbor>> Search(const float* query,
                                       const SearchParams& params,
                                       SearchStats* stats) const override;

  std::string name() const override { return "disk-" + config_.layout; }
  uint32_t size() const override { return num_nodes_; }
  uint64_t MemoryBytes() const override {
    return config_.cache_pages * config_.page_size +
           pivot_vectors_.size() * sizeof(float);
  }

  const DiskIoStats& io_stats() const { return io_stats_; }
  void ResetIoStats() { io_stats_.Reset(); }

  /// The default distance over the on-disk vectors; a query with its own
  /// weights passes SearchParams::distance instead.
  const WeightedMultiDistance& weighted_distance() const {
    return weighted_;
  }

  /// Drops all cached pages (e.g. between benchmark phases).
  void ClearCache() MQA_EXCLUDES(cache_mu_);

  size_t num_pages() const { return num_pages_; }
  size_t nodes_per_page() const { return nodes_per_page_; }

  /// Modeled query latency for `stats` page reads, with the given per-read
  /// device latency (SSD 4K random read ~ 100 us).
  static double ModeledLatencyMs(uint64_t page_reads,
                                 double read_latency_us = 100.0) {
    return page_reads * read_latency_us / 1000.0;
  }

 private:
  struct NodeRecord {
    const float* vector;
    const uint32_t* neighbors;
    uint32_t degree;
  };

  /// Per-query I/O state: error budget consumption and degradation flags.
  struct QueryIoState {
    uint64_t errors = 0;       ///< failed page reads this query
    bool cache_only = false;   ///< budget exceeded; no new reads paid for
  };

  DiskGraphIndex(DiskIndexConfig config, WeightedMultiDistance weighted)
      : config_(std::move(config)), weighted_(std::move(weighted)) {}

  /// Page access through the LRU cache; counts a read on miss. Returns
  /// nullptr when the (simulated) read failed via the
  /// "diskindex/read_page" fault point or when the query's I/O error
  /// budget is exhausted and the page is not cached (cache-only serving).
  /// Thread-safe: the cache is guarded by cache_mu_, so read-only queries
  /// may run concurrently on a shared index. The (possibly latency-
  /// injecting) simulated device read happens with cache_mu_ RELEASED, so
  /// one slow read never stalls concurrent cache hits.
  const char* FetchPage(size_t page, QueryIoState* io) const
      MQA_EXCLUDES(cache_mu_);

  NodeRecord ReadRecord(uint32_t node, const char* page_data) const;

  DiskIndexConfig config_;
  WeightedMultiDistance weighted_;

  uint32_t num_nodes_ = 0;
  size_t dim_ = 0;
  uint32_t max_degree_ = 0;
  size_t record_size_ = 0;
  size_t nodes_per_page_ = 0;
  size_t num_pages_ = 0;
  std::vector<uint32_t> entry_points_;

  std::vector<uint32_t> node_to_slot_;  // node -> packed position

  // In-memory navigation sample: pivot ids + their vectors (RAM copies).
  std::vector<uint32_t> pivot_ids_;
  std::vector<float> pivot_vectors_;  // row-major, dim_ floats per pivot

  std::vector<char> disk_;  // the simulated block device

  // LRU page cache: page id -> iterator into the recency list. Guarded by
  // cache_mu_ so concurrent queries on a shared index are safe; page
  // *contents* live in the immutable disk_ image, so returned pointers
  // stay valid across evictions.
  mutable Mutex cache_mu_;
  mutable std::list<size_t> lru_ MQA_GUARDED_BY(cache_mu_);
  mutable std::unordered_map<size_t, std::list<size_t>::iterator> cached_
      MQA_GUARDED_BY(cache_mu_);

  mutable DiskIoStats io_stats_;
};

}  // namespace mqa

#endif  // MQA_DISKINDEX_DISK_INDEX_H_
