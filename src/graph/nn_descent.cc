#include "graph/nn_descent.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <limits>
#include <span>

#include "common/sync.h"
#include "common/thread_pool.h"

namespace mqa {

namespace {

/// One entry of a node's candidate neighbor list.
struct Entry {
  float distance;
  uint32_t id;
  bool is_new;  // inserted since the last join round
};

bool EntryLess(const Entry& a, const Entry& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.id < b.id;
}

/// One node's candidate list, written by whichever join threads find
/// candidates for it. `worst` mirrors the last kept distance once the list
/// is full (+inf before). It only falls, so a stale relaxed read is too
/// high and at worst lets an extra candidate through to the locked check.
struct NodeList {
  Mutex mu;
  std::atomic<float> worst{std::numeric_limits<float>::infinity()};
  std::vector<Entry> entries MQA_GUARDED_BY(mu);
};

/// Bounded insert that keeps the `cap` smallest entries under EntryLess.
/// Rejecting by that total order (not by distance alone) makes each list
/// the top-k of every candidate ever offered to it, whatever the order of
/// the offers, so concurrent joins build exactly the lists of a serial
/// pass. Returns true when the entry was added.
bool Insert(NodeList* list, uint32_t cap, float distance, uint32_t id) {
  if (distance > list->worst.load(std::memory_order_relaxed)) return false;
  MutexLock lock(&list->mu);
  std::vector<Entry>& entries = list->entries;
  const Entry entry{distance, id, true};
  if (entries.size() >= cap && !EntryLess(entry, entries.back())) {
    return false;
  }
  for (const Entry& e : entries) {
    if (e.id == id) return false;
  }
  entries.insert(std::lower_bound(entries.begin(), entries.end(), entry,
                                  EntryLess),
                 entry);
  if (entries.size() > cap) entries.pop_back();
  if (entries.size() == cap) {
    list->worst.store(entries.back().distance, std::memory_order_relaxed);
  }
  return true;
}

/// Up to `cap` ids per node in one flat array: a round's snapshot of each
/// node's new or old neighbors, or its sampled reverse ones.
class NodeSlots {
 public:
  NodeSlots(uint32_t n, uint32_t cap)
      : cap_(cap), ids_(static_cast<size_t>(n) * cap), count_(n, 0) {}

  void Clear() { std::fill(count_.begin(), count_.end(), 0); }
  bool Full(uint32_t u) const { return count_[u] == cap_; }
  void Push(uint32_t u, uint32_t id) {
    ids_[static_cast<size_t>(u) * cap_ + count_[u]++] = id;
  }
  std::span<const uint32_t> Of(uint32_t u) const {
    return {ids_.data() + static_cast<size_t>(u) * cap_, count_[u]};
  }

 private:
  uint32_t cap_;
  std::vector<uint32_t> ids_;
  std::vector<uint32_t> count_;
};

/// A join's working buffers, reused by every join on its thread.
struct JoinScratch {
  /// The node's deduplicated new pool, then the old ids not in it.
  std::vector<uint32_t> pool;
  std::vector<uint32_t> old;
  std::vector<float> dists;
};

}  // namespace

Result<AdjacencyGraph> BuildNNDescentGraph(DistanceComputer* dist, uint32_t k,
                                           uint32_t iters, Rng* rng,
                                           uint64_t* pair_evals) {
  if (pair_evals != nullptr) *pair_evals = 0;
  const uint32_t n = dist->size();
  if (n == 0) return Status::InvalidArgument("empty vector store");
  if (k == 0) return Status::InvalidArgument("k must be > 0");
  k = std::min(k, n - 1);
  if (k == 0) {
    // Single-element store: a graph with one isolated node.
    return AdjacencyGraph(1);
  }
  ThreadPool& pool = DefaultThreadPool();

  // Random init: the draws come from `rng` in node order, the distances
  // are computed on the pool.
  std::vector<uint32_t> init(static_cast<size_t>(n) * k);
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t t = 0; t < k; ++t) {
      uint32_t v = static_cast<uint32_t>(rng->NextUint64(n - 1));
      if (v >= u) ++v;  // exclude self
      init[static_cast<size_t>(u) * k + t] = v;
    }
  }
  // Sized here, on the calling thread, so the lists never reallocate in
  // (and leave freed blocks behind in) the workers' malloc arenas.
  std::vector<NodeList> lists(n);
  for (NodeList& list : lists) {
    MutexLock lock(&list.mu);
    list.entries.reserve(k + 1);
  }
  thread_local JoinScratch scratch;
  pool.ParallelFor(n, [&](size_t u) {
    const std::span<const uint32_t> drawn(init.data() + u * k, k);
    std::vector<float>& dists = scratch.dists;
    dists.resize(k);
    dist->DistancesBetween(static_cast<uint32_t>(u), drawn, dists.data());
    for (uint32_t t = 0; t < k; ++t) Insert(&lists[u], k, dists[t], drawn[t]);
  });
  std::atomic<uint64_t> evals{0};

  // Each round's snapshot: a list holds at most k ids, and at most k
  // reverse neighbors are sampled per node.
  NodeSlots new_nbrs(n, k), old_nbrs(n, k), rev_new(n, k), rev_old(n, k);

  for (uint32_t iter = 0; iter < iters; ++iter) {
    // Snapshot new/old partitions, then clear the new flags.
    new_nbrs.Clear();
    old_nbrs.Clear();
    for (uint32_t u = 0; u < n; ++u) {
      NodeList& list = lists[u];
      MutexLock lock(&list.mu);
      for (Entry& e : list.entries) {
        (e.is_new ? new_nbrs : old_nbrs).Push(u, e.id);
        e.is_new = false;
      }
    }
    // Sampled reverse edges: the first k sources in node order.
    rev_new.Clear();
    rev_old.Clear();
    for (uint32_t u = 0; u < n; ++u) {
      for (uint32_t v : new_nbrs.Of(u)) {
        if (!rev_new.Full(v)) rev_new.Push(v, u);
      }
      for (uint32_t v : old_nbrs.Of(u)) {
        if (!rev_old.Full(v)) rev_old.Push(v, u);
      }
    }

    // Local joins, in parallel over the nodes whose pools are joined. The
    // pools are the snapshot above, so every round offers the same pairs
    // as a serial pass, and Insert keeps each list order-independent.
    // Each pool is deduplicated, and the old pool loses the ids of the new
    // one: an id in both halves of a mutual edge, or in both pools, would
    // only offer a pair again, and a list already holds the top-k of
    // every pair offered to it (the distance is bitwise symmetric), so a
    // repeat never changes a list. The pairs are new x new and new x old,
    // so with the new ids first, each new id is joined with exactly the
    // ids after it: one batched distance call, then the inserts.
    std::atomic<uint64_t> updates{0};
    pool.ParallelFor(n, [&](size_t u) {
      std::vector<uint32_t>& joined = scratch.pool;
      std::vector<uint32_t>& old = scratch.old;
      const auto node = static_cast<uint32_t>(u);
      joined.assign(new_nbrs.Of(node).begin(), new_nbrs.Of(node).end());
      joined.insert(joined.end(), rev_new.Of(node).begin(),
                    rev_new.Of(node).end());
      std::sort(joined.begin(), joined.end());
      joined.erase(std::unique(joined.begin(), joined.end()), joined.end());
      const size_t num_new = joined.size();
      if (num_new == 0) return;
      old.assign(old_nbrs.Of(node).begin(), old_nbrs.Of(node).end());
      old.insert(old.end(), rev_old.Of(node).begin(), rev_old.Of(node).end());
      std::sort(old.begin(), old.end());
      old.erase(std::unique(old.begin(), old.end()), old.end());
      joined.reserve(num_new + old.size());  // no reallocation below
      std::set_difference(old.begin(), old.end(), joined.begin(),
                          joined.begin() + num_new,
                          std::back_inserter(joined));

      std::vector<float>& dists = scratch.dists;
      dists.resize(joined.size());
      uint64_t local = 0;
      uint64_t scored = 0;
      for (size_t i = 0; i < num_new; ++i) {
        const uint32_t a = joined[i];
        const std::span<const uint32_t> partners(joined.data() + i + 1,
                                                 joined.size() - i - 1);
        dist->DistancesBetween(a, partners, dists.data());
        scored += partners.size();
        for (size_t j = 0; j < partners.size(); ++j) {
          if (Insert(&lists[a], k, dists[j], partners[j])) ++local;
          if (Insert(&lists[partners[j]], k, dists[j], a)) ++local;
        }
      }
      evals.fetch_add(scored, std::memory_order_relaxed);
      if (local > 0) updates.fetch_add(local, std::memory_order_relaxed);
    });
    if (updates.load(std::memory_order_relaxed) == 0) break;
  }
  if (pair_evals != nullptr) *pair_evals = evals.load();

  AdjacencyGraph graph(n, k);
  std::vector<uint32_t> nbrs;
  for (uint32_t u = 0; u < n; ++u) {
    NodeList& list = lists[u];
    MutexLock lock(&list.mu);
    nbrs.clear();
    for (const Entry& e : list.entries) nbrs.push_back(e.id);
    graph.SetNeighbors(u, nbrs);
  }
  return graph;
}

}  // namespace mqa
