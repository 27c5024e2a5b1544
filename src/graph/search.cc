#include "graph/search.h"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <queue>

#include "common/metrics.h"
#include "common/trace.h"

namespace mqa {

std::vector<Neighbor> BeamSearch(const AdjacencyGraph& graph,
                                 DistanceComputer* dist, const float* query,
                                 const std::vector<uint32_t>& entries,
                                 size_t k, size_t beam_width,
                                 SearchStats* stats,
                                 std::vector<Neighbor>* evaluated,
                                 const SearchFilter& filter) {
  const uint32_t n = graph.num_nodes();
  if (n == 0 || entries.empty()) return {};
  beam_width = std::max(beam_width, k);

  std::vector<bool> visited(n, false);

  // Candidate frontier: min-heap by distance.
  auto cand_greater = [](const Neighbor& a, const Neighbor& b) {
    return NeighborLess(b, a);
  };
  std::priority_queue<Neighbor, std::vector<Neighbor>, decltype(cand_greater)>
      frontier(cand_greater);

  // The beam steers navigation over every vertex; with a filter active,
  // admissible results are collected separately.
  TopK beam(beam_width);
  TopK admitted(k);
  DistanceTally tally;

  auto offer = [&](float d, uint32_t id) {
    frontier.push({d, id});
    beam.Push(d, id);
    if (filter && filter(id)) admitted.Push(d, id);
  };

  for (uint32_t e : entries) {
    if (e >= n || visited[e]) continue;
    visited[e] = true;
    const float d = dist->Distance(query, e, &tally);
    if (stats != nullptr) ++stats->dist_comps;
    if (evaluated != nullptr) evaluated->push_back({d, e});
    offer(d, e);
  }

  // Adjacency-scan scratch, reused across hops. Unvisited neighbors are
  // collected first and their rows prefetched together, so by the time each
  // one is scored its vector is already on the way to L1; scoring order and
  // bound updates are exactly those of the one-pass loop.
  std::vector<uint32_t> to_score;

  while (!frontier.empty()) {
    const Neighbor current = frontier.top();
    frontier.pop();
    // Termination: the closest unexpanded candidate cannot improve the beam.
    if (beam.Full() && current.distance > beam.WorstDistance()) break;
    if (stats != nullptr) ++stats->hops;

    to_score.clear();
    for (uint32_t nbr : graph.neighbors(current.id)) {
      if (visited[nbr]) continue;
      visited[nbr] = true;
      to_score.push_back(nbr);
    }
    for (uint32_t nbr : to_score) dist->Prefetch(nbr);
    for (uint32_t nbr : to_score) {
      const float bound = beam.Full() ? beam.WorstDistance()
                                      : std::numeric_limits<float>::max();
      const float d = dist->DistanceWithBound(query, nbr, bound, &tally);
      if (stats != nullptr) ++stats->dist_comps;
      if (d > bound) continue;  // pruned: cannot enter the beam
      if (evaluated != nullptr) evaluated->push_back({d, nbr});
      offer(d, nbr);
    }
  }
  dist->AddTally(tally);

  std::vector<Neighbor> results =
      filter ? admitted.TakeSorted() : beam.TakeSorted();
  if (results.size() > k) results.resize(k);
  return results;
}

uint32_t ApproximateMedoid(DistanceComputer* dist, Rng* rng,
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
                                                 SearchStats* stats) {
  Span span("graph/search");
  if (params.k == 0) return Status::InvalidArgument("k must be > 0");
  if (graph_.num_nodes() == 0) return Status::FailedPrecondition("empty index");
  // The traversal fills a fresh local stats block; global counters and the
  // caller's accumulator are fed from it afterwards via SearchStats::Merge
  // (one resolved-pointer add per query, traversal loop untouched).
  SearchStats local;
  std::vector<Neighbor> out =
      BeamSearch(graph_, dist_.get(), query, entry_points_, params.k,
                 params.beam_width, &local, nullptr, params.filter);
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
    const float* query, const SearchParams& params, SearchStats* stats) {
  if (params.k == 0) return Status::InvalidArgument("k must be > 0");
  const uint32_t n = dist_->size();
  if (n == 0) return Status::FailedPrecondition("empty index");
  TopK topk(params.k);
  DistanceTally tally;
  for (uint32_t i = 0; i < n; ++i) {
    // The next row's fetch overlaps this row's arithmetic.
    if (i + 1 < n) dist_->Prefetch(i + 1);
    if (params.filter && !params.filter(i)) continue;
    const float bound = topk.Full() ? topk.WorstDistance()
                                    : std::numeric_limits<float>::max();
    const float d = dist_->DistanceWithBound(query, i, bound, &tally);
    if (stats != nullptr) ++stats->dist_comps;
    if (d > bound) continue;
    topk.Push(d, i);
  }
  dist_->AddTally(tally);
  return topk.TakeSorted();
}

}  // namespace mqa
