#include "graph/search.h"

#include <algorithm>
#include <istream>
#include <limits>
#include <optional>
#include <span>
#include <ostream>

#include "common/metrics.h"
#include "common/trace.h"

namespace mqa {

namespace {

/// One entry of the search's candidate buffer.
struct Candidate {
  float distance;
  uint32_t id;
  bool expanded;
};

/// State a search reuses from the previous one on its thread: the visited
/// table, the candidate buffer and the to-score list. A node counts as
/// visited when its stamp equals the current epoch, so starting a search is
/// an epoch bump, not an O(n) clear.
struct SearchScratch {
  std::vector<uint32_t> stamps;
  uint32_t epoch = 0;
  std::vector<Candidate> candidates;
  std::vector<uint32_t> to_score;

  void Begin(uint32_t num_nodes) {
    if (stamps.size() < num_nodes) stamps.resize(num_nodes, 0);
    if (++epoch == 0) {  // wrapped: stamps from 2^32 searches ago match
      std::fill(stamps.begin(), stamps.end(), 0);
      epoch = 1;
    }
    candidates.clear();
  }
};

/// NeighborLess on candidates, written without branches: the buffer's
/// binary search runs on data-dependent comparisons a predictor cannot
/// learn.
bool CandidateLess(const Candidate& a, const Candidate& b) {
  return (a.distance < b.distance) |
         ((a.distance == b.distance) & (a.id < b.id));
}

/// Index of the first entry of the sorted `pool` not less than `c`, by a
/// branch-free binary search.
size_t LowerBound(const std::vector<Candidate>& pool, const Candidate& c) {
  if (pool.empty()) return 0;
  const Candidate* base = pool.data();
  size_t len = pool.size();
  while (len > 1) {
    const size_t half = len / 2;
    base = CandidateLess(base[half], c) ? base + half : base;
    len -= half;
  }
  return static_cast<size_t>(base - pool.data()) + CandidateLess(*base, c);
}

}  // namespace

std::vector<Neighbor> BeamSearch(const AdjacencyGraph& graph,
                                 const DistanceComputer* dist,
                                 const float* query,
                                 const std::vector<uint32_t>& entries,
                                 size_t k, size_t beam_width,
                                 SearchStats* stats,
                                 std::vector<Neighbor>* evaluated,
                                 const SearchFilter& filter,
                                 const WeightedMultiDistance* weighted) {
  const uint32_t n = graph.num_nodes();
  const size_t width = std::max(beam_width, k);
  if (n == 0 || entries.empty() || width == 0) return {};

  thread_local SearchScratch scratch;
  scratch.Begin(n);
  std::vector<Candidate>& pool = scratch.candidates;
  std::vector<uint32_t>& to_score = scratch.to_score;
  uint32_t* const stamps = scratch.stamps.data();
  const uint32_t epoch = scratch.epoch;

  // The candidate buffer, sorted by (distance, id): the `width` best
  // candidates offered so far, then any others that tie the width-th
  // distance. Those are exactly the candidates a best-first search may
  // still expand (it stops at the first one strictly worse than its
  // width-th best), so expanding the first unexpanded entry reproduces
  // that search step for step, ties included. Entries before `cursor` are
  // expanded; the one at `cursor`, if any, is not.
  size_t cursor = 0;
  // With a filter active, admissible results are collected separately;
  // the buffer steers navigation over every vertex.
  std::optional<TopK> admitted;
  if (filter) admitted.emplace(k);
  DistanceContext ctx{weighted, {}};
  uint64_t hops = 0;
  uint64_t dist_comps = 0;

  auto offer = [&](float d, uint32_t id) {
    if (admitted && filter(id)) admitted->Push(d, id);
    if (pool.size() >= width && d > pool[width - 1].distance) return;
    const Candidate c{d, id, false};
    const size_t at = LowerBound(pool, c);
    cursor = std::min(cursor, at);
    pool.insert(pool.begin() + static_cast<std::ptrdiff_t>(at), c);
    if (pool.size() > width) {
      const float w = pool[width - 1].distance;
      while (pool.back().distance > w) pool.pop_back();
    }
  };

  for (uint32_t e : entries) {
    if (e >= n || stamps[e] == epoch) continue;
    stamps[e] = epoch;
    const float d = dist->Distance(query, e, &ctx);
    ++dist_comps;
    if (evaluated != nullptr) evaluated->push_back({d, e});
    offer(d, e);
  }

  while (cursor < pool.size()) {
    const uint32_t current = pool[cursor].id;
    pool[cursor].expanded = true;
    while (cursor < pool.size() && pool[cursor].expanded) ++cursor;
    // The next expansion is most likely the new first unexpanded entry;
    // start fetching its list while this one is scored.
    if (cursor < pool.size()) graph.PrefetchNeighbors(pool[cursor].id);
    ++hops;

    // Unvisited neighbors are collected first and their rows prefetched
    // together, so by the time each one is scored its vector is already on
    // the way to L1; scoring order and bound updates are exactly those of
    // the one-pass loop.
    const std::span<const uint32_t> nbrs = graph.neighbors(current);
    if (to_score.size() < nbrs.size()) to_score.resize(nbrs.size());
    size_t num_to_score = 0;
    for (uint32_t nbr : nbrs) {  // branch-free: "visited" is unpredictable
      to_score[num_to_score] = nbr;
      num_to_score += stamps[nbr] != epoch;
      stamps[nbr] = epoch;
    }
    for (size_t i = 0; i < num_to_score; ++i) dist->Prefetch(to_score[i]);
    for (size_t i = 0; i < num_to_score; ++i) {
      const uint32_t nbr = to_score[i];
      const float bound = pool.size() >= width
                              ? pool[width - 1].distance
                              : std::numeric_limits<float>::max();
      const float d = dist->DistanceWithBound(query, nbr, bound, &ctx);
      ++dist_comps;
      if (d > bound) continue;  // pruned: cannot enter the buffer
      if (evaluated != nullptr) evaluated->push_back({d, nbr});
      offer(d, nbr);
    }
  }
  dist->AddTally(ctx.tally);
  if (stats != nullptr) {
    stats->hops += hops;
    stats->dist_comps += dist_comps;
  }

  if (admitted) return admitted->TakeSorted();
  std::vector<Neighbor> results;
  results.reserve(std::min(k, pool.size()));
  for (size_t i = 0; i < k && i < pool.size(); ++i) {
    results.push_back({pool[i].distance, pool[i].id});
  }
  return results;
}

uint32_t ApproximateMedoid(const DistanceComputer* dist, Rng* rng,
                           uint32_t sample_size) {
  const uint32_t n = dist->size();
  if (n == 0) return 0;
  const uint32_t s = std::min(sample_size, n);
  std::vector<uint32_t> sample = rng->SampleWithoutReplacement(n, s);
  uint32_t best = sample[0];
  double best_sum = std::numeric_limits<double>::max();
  for (uint32_t cand : sample) {
    double sum = 0.0;
    for (uint32_t other : sample) {
      if (other == cand) continue;
      sum += dist->DistanceBetween(cand, other);
    }
    if (sum < best_sum) {
      best_sum = sum;
      best = cand;
    }
  }
  return best;
}

Result<std::vector<Neighbor>> GraphIndex::Search(const float* query,
                                                 const SearchParams& params,
                                                 SearchStats* stats) const {
  Span span("graph/search");
  if (params.k == 0) return Status::InvalidArgument("k must be > 0");
  if (graph_.num_nodes() == 0) return Status::FailedPrecondition("empty index");
  // The traversal fills a fresh local stats block; global counters and the
  // caller's accumulator are fed from it afterwards via SearchStats::Merge
  // (one resolved-pointer add per query, traversal loop untouched).
  SearchStats local;
  std::vector<Neighbor> out =
      BeamSearch(graph_, dist_.get(), query, entry_points_, params.k,
                 params.beam_width, &local, nullptr, params.filter,
                 params.distance);
  static Counter* const searches =
      MetricsRegistry::Global().GetCounter("graph/searches");
  static Counter* const hops =
      MetricsRegistry::Global().GetCounter("graph/hops");
  static Counter* const dist_comps =
      MetricsRegistry::Global().GetCounter("graph/dist_comps");
  searches->Increment();
  hops->Increment(local.hops);
  dist_comps->Increment(local.dist_comps);
  if (stats != nullptr) stats->Merge(local);
  return out;
}

Status GraphIndex::Save(std::ostream& out) const {
  const uint32_t name_len = static_cast<uint32_t>(name_.size());
  out.write(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
  out.write(name_.data(), name_len);
  MQA_RETURN_NOT_OK(graph_.Save(out));
  const uint32_t num_entries = static_cast<uint32_t>(entry_points_.size());
  out.write(reinterpret_cast<const char*>(&num_entries),
            sizeof(num_entries));
  out.write(reinterpret_cast<const char*>(entry_points_.data()),
            num_entries * sizeof(uint32_t));
  if (!out) return Status::IoError("failed to write graph index");
  return Status::OK();
}

Result<std::unique_ptr<GraphIndex>> GraphIndex::Load(
    std::istream& in, std::unique_ptr<DistanceComputer> dist) {
  uint32_t name_len = 0;
  in.read(reinterpret_cast<char*>(&name_len), sizeof(name_len));
  if (!in || name_len > 4096) return Status::IoError("bad index name");
  std::string name(name_len, '\0');
  in.read(name.data(), name_len);
  if (!in) return Status::IoError("truncated index name");
  MQA_ASSIGN_OR_RETURN(AdjacencyGraph graph, AdjacencyGraph::Load(in));
  uint32_t num_entries = 0;
  in.read(reinterpret_cast<char*>(&num_entries), sizeof(num_entries));
  if (!in || num_entries > graph.num_nodes()) {
    return Status::IoError("bad entry point count");
  }
  std::vector<uint32_t> entries(num_entries);
  in.read(reinterpret_cast<char*>(entries.data()),
          num_entries * sizeof(uint32_t));
  if (!in) return Status::IoError("truncated entry points");
  for (uint32_t e : entries) {
    if (e >= graph.num_nodes()) {
      return Status::IoError("entry point out of range");
    }
  }
  if (dist != nullptr && dist->size() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "distance computer size does not match the saved graph");
  }
  return std::make_unique<GraphIndex>(std::move(name), std::move(graph),
                                      std::move(dist), std::move(entries));
}

Result<std::vector<Neighbor>> BruteForceIndex::Search(
    const float* query, const SearchParams& params,
    SearchStats* stats) const {
  if (params.k == 0) return Status::InvalidArgument("k must be > 0");
  const uint32_t n = dist_->size();
  if (n == 0) return Status::FailedPrecondition("empty index");
  TopK topk(params.k);
  DistanceContext ctx{params.distance, {}};
  for (uint32_t i = 0; i < n; ++i) {
    // The next row's fetch overlaps this row's arithmetic.
    if (i + 1 < n) dist_->Prefetch(i + 1);
    if (params.filter && !params.filter(i)) continue;
    const float bound = topk.Full() ? topk.WorstDistance()
                                    : std::numeric_limits<float>::max();
    const float d = dist_->DistanceWithBound(query, i, bound, &ctx);
    if (stats != nullptr) ++stats->dist_comps;
    if (d > bound) continue;
    topk.Push(d, i);
  }
  dist_->AddTally(ctx.tally);
  return topk.TakeSorted();
}

}  // namespace mqa
