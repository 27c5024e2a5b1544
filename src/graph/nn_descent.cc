#include "graph/nn_descent.h"

#include <algorithm>
#include <atomic>
#include <limits>

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

}  // namespace

Result<AdjacencyGraph> BuildNNDescentGraph(DistanceComputer* dist, uint32_t k,
                                           uint32_t iters, Rng* rng) {
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
  pool.ParallelFor(n, [&](size_t u) {
    for (uint32_t t = 0; t < k; ++t) {
      const uint32_t v = init[u * k + t];
      const float d = dist->DistanceBetween(static_cast<uint32_t>(u), v);
      Insert(&lists[u], k, d, v);
    }
  });

  // Sampled reverse-neighbor cap per node per round.
  const size_t reverse_cap = k;

  for (uint32_t iter = 0; iter < iters; ++iter) {
    // Snapshot new/old partitions, then clear the new flags.
    std::vector<std::vector<uint32_t>> new_nbrs(n), old_nbrs(n);
    for (uint32_t u = 0; u < n; ++u) {
      NodeList& list = lists[u];
      MutexLock lock(&list.mu);
      for (Entry& e : list.entries) {
        (e.is_new ? new_nbrs[u] : old_nbrs[u]).push_back(e.id);
        e.is_new = false;
      }
    }
    // Sampled reverse edges.
    std::vector<std::vector<uint32_t>> rev_new(n), rev_old(n);
    for (uint32_t u = 0; u < n; ++u) {
      for (uint32_t v : new_nbrs[u]) {
        if (rev_new[v].size() < reverse_cap) rev_new[v].push_back(u);
      }
      for (uint32_t v : old_nbrs[u]) {
        if (rev_old[v].size() < reverse_cap) rev_old[v].push_back(u);
      }
    }

    // Local joins, in parallel over the nodes whose pools are joined. The
    // pools are the snapshot above, so every round evaluates the same
    // pairs as a serial pass, and Insert keeps each list order-independent.
    std::atomic<uint64_t> updates{0};
    pool.ParallelFor(n, [&](size_t u) {
      std::vector<uint32_t> pool_new = new_nbrs[u];
      pool_new.insert(pool_new.end(), rev_new[u].begin(), rev_new[u].end());
      std::vector<uint32_t> pool_old = old_nbrs[u];
      pool_old.insert(pool_old.end(), rev_old[u].begin(), rev_old[u].end());

      // new x new and new x old joins: candidates become neighbors of each
      // other when close enough.
      uint64_t local = 0;
      auto join = [&](uint32_t a, uint32_t b) {
        if (a == b) return;
        const float d = dist->DistanceBetween(a, b);
        if (Insert(&lists[a], k, d, b)) ++local;
        if (Insert(&lists[b], k, d, a)) ++local;
      };
      for (size_t i = 0; i < pool_new.size(); ++i) {
        for (size_t j = i + 1; j < pool_new.size(); ++j) {
          join(pool_new[i], pool_new[j]);
        }
        for (uint32_t b : pool_old) join(pool_new[i], b);
      }
      if (local > 0) updates.fetch_add(local, std::memory_order_relaxed);
    });
    if (updates.load(std::memory_order_relaxed) == 0) break;
  }

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
