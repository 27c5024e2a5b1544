#include "diskindex/disk_index.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <queue>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace mqa {

namespace {

/// Process-wide mirrors of DiskIoStats. Resolved once (pointers are
/// stable), then each event costs one relaxed atomic add — FetchPage is
/// the hottest disk-path function, so no registry lookups happen per call.
struct DiskCounters {
  Counter* page_reads;
  Counter* cache_hits;
  Counter* io_errors;
  Counter* bytes_read;
};

const DiskCounters& GlobalDiskCounters() {
  static const DiskCounters kCounters = {
      MetricsRegistry::Global().GetCounter("diskindex/page_reads"),
      MetricsRegistry::Global().GetCounter("diskindex/cache_hits"),
      MetricsRegistry::Global().GetCounter("diskindex/io_errors"),
      MetricsRegistry::Global().GetCounter("diskindex/bytes_read"),
  };
  return kCounters;
}

}  // namespace

Result<std::unique_ptr<DiskGraphIndex>> DiskGraphIndex::Create(
    const DiskIndexConfig& config, const GraphIndex& mem_index,
    const VectorStore& store, WeightedMultiDistance weighted) {
  if (mem_index.size() != store.size()) {
    return Status::InvalidArgument("graph and store sizes differ");
  }
  if (mem_index.size() == 0) {
    return Status::FailedPrecondition("empty source index");
  }
  if (config.layout != "id" && config.layout != "bfs") {
    return Status::InvalidArgument("unknown layout: " + config.layout);
  }
  if (weighted.schema().TotalDim() != store.row_dim()) {
    return Status::InvalidArgument("distance schema does not match store");
  }

  std::unique_ptr<DiskGraphIndex> index(
      new DiskGraphIndex(config, std::move(weighted)));
  const AdjacencyGraph& graph = mem_index.graph();
  const uint32_t n = graph.num_nodes();
  index->num_nodes_ = n;
  index->dim_ = store.row_dim();
  index->max_degree_ = std::max<uint32_t>(1, graph.MaxDegree());
  index->entry_points_ = mem_index.entry_points();

  // Fixed-size record: [degree u32][neighbors: max_degree u32][vector].
  index->record_size_ = sizeof(uint32_t) * (1 + index->max_degree_) +
                        sizeof(float) * index->dim_;
  if (index->record_size_ > config.page_size) {
    return Status::InvalidArgument(
        "node record does not fit in one page; increase page_size");
  }
  index->nodes_per_page_ =
      std::max<size_t>(1, config.page_size / index->record_size_);
  index->num_pages_ =
      (n + index->nodes_per_page_ - 1) / index->nodes_per_page_;

  // Packing order: slot -> node.
  std::vector<uint32_t> slot_to_node;
  slot_to_node.reserve(n);
  if (config.layout == "id") {
    for (uint32_t u = 0; u < n; ++u) slot_to_node.push_back(u);
  } else {
    // BFS from the entry point: neighborhoods become block-adjacent.
    std::vector<bool> seen(n, false);
    std::queue<uint32_t> frontier;
    const uint32_t start =
        index->entry_points_.empty() ? 0 : index->entry_points_[0];
    frontier.push(start);
    seen[start] = true;
    while (!frontier.empty()) {
      const uint32_t u = frontier.front();
      frontier.pop();
      slot_to_node.push_back(u);
      for (uint32_t v : graph.neighbors(u)) {
        if (!seen[v]) {
          seen[v] = true;
          frontier.push(v);
        }
      }
    }
    for (uint32_t u = 0; u < n; ++u) {
      if (!seen[u]) slot_to_node.push_back(u);
    }
  }
  index->node_to_slot_.resize(n);
  for (uint32_t slot = 0; slot < n; ++slot) {
    index->node_to_slot_[slot_to_node[slot]] = slot;
  }

  // In-memory navigation sample (deterministic spread over the packing
  // order, so pivots cover the whole graph).
  if (config.memory_pivots > 0) {
    const uint32_t pivots = std::min(config.memory_pivots, n);
    index->pivot_ids_.reserve(pivots);
    index->pivot_vectors_.reserve(static_cast<size_t>(pivots) * index->dim_);
    for (uint32_t i = 0; i < pivots; ++i) {
      const uint32_t slot =
          static_cast<uint32_t>(static_cast<uint64_t>(i) * n / pivots);
      const uint32_t node = slot_to_node[slot];
      index->pivot_ids_.push_back(node);
      const float* v = store.data(node);
      index->pivot_vectors_.insert(index->pivot_vectors_.end(), v,
                                   v + index->dim_);
    }
  }

  // Write records to the simulated device.
  index->disk_.assign(index->num_pages_ * config.page_size, 0);
  for (uint32_t slot = 0; slot < n; ++slot) {
    const uint32_t u = slot_to_node[slot];
    const size_t page = slot / index->nodes_per_page_;
    const size_t off_in_page =
        (slot % index->nodes_per_page_) * index->record_size_;
    char* rec = index->disk_.data() + page * config.page_size + off_in_page;
    const auto& nbrs = graph.neighbors(u);
    const uint32_t degree = static_cast<uint32_t>(nbrs.size());
    std::memcpy(rec, &degree, sizeof(uint32_t));
    std::memcpy(rec + sizeof(uint32_t), nbrs.data(),
                degree * sizeof(uint32_t));
    std::memcpy(rec + sizeof(uint32_t) * (1 + index->max_degree_),
                store.data(u), index->dim_ * sizeof(float));
  }
  return index;
}

const char* DiskGraphIndex::FetchPage(size_t page, QueryIoState* io) const {
  {
    MutexLock lock(&cache_mu_);
    auto it = cached_.find(page);
    if (it != cached_.end()) {
      // Move to the front of the recency list.
      lru_.splice(lru_.begin(), lru_, it->second);
      io_stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      GlobalDiskCounters().cache_hits->Increment();
      return disk_.data() + page * config_.page_size;
    }
  }
  // Budget exhausted: serve cache-only, never pay for another read.
  if (io->cache_only) return nullptr;
  // The simulated device read; the "diskindex/read_page" fault point makes
  // it fail. A failed read is charged against the query's error budget and
  // the page is simply not delivered — the caller routes around it.
  //
  // Deliberately OUTSIDE cache_mu_ (the static lock auditor's
  // wait-while-locked rule enforces this): an injected latency spike
  // sleeps through the Clock, and holding the cache lock across it would
  // serialize every concurrent query behind one slow read.
  if (FaultInjector::Global().enabled()) {
    const Status st = FaultInjector::Global().Check("diskindex/read_page");
    if (!st.ok()) {
      io_stats_.io_errors.fetch_add(1, std::memory_order_relaxed);
      GlobalDiskCounters().io_errors->Increment();
      ++io->errors;
      if (io->errors > config_.io_error_budget) io->cache_only = true;
      return nullptr;
    }
  }
  io_stats_.page_reads.fetch_add(1, std::memory_order_relaxed);
  io_stats_.bytes_read.fetch_add(config_.page_size,
                                 std::memory_order_relaxed);
  GlobalDiskCounters().page_reads->Increment();
  GlobalDiskCounters().bytes_read->Increment(config_.page_size);
  MutexLock lock(&cache_mu_);
  auto it = cached_.find(page);
  if (it == cached_.end()) {
    lru_.push_front(page);
    cached_[page] = lru_.begin();
    if (cached_.size() > config_.cache_pages) {
      cached_.erase(lru_.back());
      lru_.pop_back();
    }
  } else {
    // Another query read the same page while we were off the lock: both
    // paid a device read (as real concurrent misses would); just refresh
    // its recency.
    lru_.splice(lru_.begin(), lru_, it->second);
  }
  return disk_.data() + page * config_.page_size;
}

DiskGraphIndex::NodeRecord DiskGraphIndex::ReadRecord(
    uint32_t node, const char* page_data) const {
  const uint32_t slot = node_to_slot_[node];
  const size_t off = (slot % nodes_per_page_) * record_size_;
  const char* rec = page_data + off;
  NodeRecord out;
  std::memcpy(&out.degree, rec, sizeof(uint32_t));
  out.neighbors = reinterpret_cast<const uint32_t*>(rec + sizeof(uint32_t));
  out.vector = reinterpret_cast<const float*>(
      rec + sizeof(uint32_t) * (1 + max_degree_));
  return out;
}

Result<std::vector<Neighbor>> DiskGraphIndex::Search(
    const float* query, const SearchParams& params, SearchStats* stats) const {
  Span span("diskindex/search");
  if (params.k == 0) return Status::InvalidArgument("k must be > 0");
  if (num_nodes_ == 0) return Status::FailedPrecondition("empty index");
  const size_t beam_width = std::max(params.beam_width, params.k);
  const WeightedMultiDistance& weighted =
      params.distance != nullptr ? *params.distance : weighted_;

  std::vector<bool> visited(num_nodes_, false);

  auto cand_greater = [](const Neighbor& a, const Neighbor& b) {
    return NeighborLess(b, a);
  };
  std::priority_queue<Neighbor, std::vector<Neighbor>, decltype(cand_greater)>
      frontier(cand_greater);
  TopK beam(beam_width);
  TopK admitted(params.k);

  // The traversal counts into a local block; the caller's accumulator gets
  // one SearchStats::Merge at the end (same rule the sharded fan-out uses).
  SearchStats local;

  auto score = [&](uint32_t node, const char* page_data) {
    const NodeRecord rec = ReadRecord(node, page_data);
    const float d = weighted.Exact(query, rec.vector);
    ++local.dist_comps;
    visited[node] = true;
    frontier.push({d, node});
    beam.Push(d, node);
    if (params.filter && params.filter(node)) admitted.Push(d, node);
  };

  QueryIoState io;

  if (!pivot_ids_.empty()) {
    // In-memory navigation: scan the RAM pivots (no I/O) and start the
    // on-disk traversal from the closest few. The pivot table is one
    // contiguous row-major block, so the whole rerank scan is one call of
    // the batched kernel, which scores four pivot rows per pass.
    TopK best_pivots(4);
    std::vector<float> pivot_dists(pivot_ids_.size());
    weighted.ExactBatch(query, pivot_vectors_.data(), dim_, /*ids=*/nullptr,
                        pivot_ids_.size(), pivot_dists.data());
    for (size_t i = 0; i < pivot_ids_.size(); ++i) {
      ++local.dist_comps;
      best_pivots.Push(pivot_dists[i], pivot_ids_[i]);
    }
    for (const Neighbor& p : best_pivots.TakeSorted()) {
      if (visited[p.id]) continue;
      const size_t page = node_to_slot_[p.id] / nodes_per_page_;
      const char* page_data = FetchPage(page, &io);
      if (page_data != nullptr) score(p.id, page_data);
    }
  }
  for (uint32_t e : entry_points_) {
    if (e >= num_nodes_ || visited[e]) continue;
    const size_t page = node_to_slot_[e] / nodes_per_page_;
    const char* page_data = FetchPage(page, &io);
    if (page_data != nullptr) score(e, page_data);
  }
  // An unlucky fault schedule can fail every seed read, leaving the
  // traversal with no start. Probe successive nodes until a page arrives
  // or the error budget degrades the query to cache-only. (Unreachable
  // without injected faults: a healthy device always delivers the seeds.)
  for (uint32_t n = 0; frontier.empty() && n < num_nodes_ && !io.cache_only;
       ++n) {
    const size_t page = node_to_slot_[n] / nodes_per_page_;
    const char* page_data = FetchPage(page, &io);
    if (page_data != nullptr) score(n, page_data);
  }

  while (!frontier.empty()) {
    const Neighbor current = frontier.top();
    frontier.pop();
    if (beam.Full() && current.distance > beam.WorstDistance()) break;
    ++local.hops;

    const size_t page = node_to_slot_[current.id] / nodes_per_page_;
    const char* page_data = FetchPage(page, &io);
    // The page holding the current node failed to read: route around it by
    // skipping its expansion. (Its own distance is already in the beam.)
    if (page_data == nullptr) continue;
    const NodeRecord rec = ReadRecord(current.id, page_data);
    for (uint32_t i = 0; i < rec.degree; ++i) {
      const uint32_t nbr = rec.neighbors[i];
      if (nbr >= num_nodes_ || visited[nbr]) continue;
      const size_t nbr_page = node_to_slot_[nbr] / nodes_per_page_;
      const char* nbr_data = FetchPage(nbr_page, &io);
      if (nbr_data != nullptr) score(nbr, nbr_data);
    }
  }

  std::vector<Neighbor> results =
      params.filter ? admitted.TakeSorted() : beam.TakeSorted();
  if (results.size() > params.k) results.resize(params.k);
  local.io_errors = io.errors;
  local.partial = io.cache_only || (results.empty() && io.errors > 0);
  if (stats != nullptr) stats->Merge(local);
  return results;
}

void DiskGraphIndex::ClearCache() {
  MutexLock lock(&cache_mu_);
  lru_.clear();
  cached_.clear();
}

}  // namespace mqa
