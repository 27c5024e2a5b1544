#include "graph/pipeline.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/tombstones.h"
#include "graph/nn_descent.h"

namespace mqa {

namespace {

/// Mutable state threaded through the pipeline stages via the DAG context.
struct BuildState {
  GraphBuildConfig config;
  const VectorStore* store = nullptr;
  DistanceComputer* dist = nullptr;
  AdjacencyGraph graph;
  uint32_t medoid = 0;
  Rng rng{42};
  uint64_t nn_descent_evals = 0;
};

constexpr char kStateKey[] = "build_state";

Result<BuildState*> GetState(dag::DagContext* ctx) {
  return ctx->Get<BuildState>(kStateKey);
}

/// Appends (DistanceBetween(from, id), id) for every id, in order, scored
/// in one batched call.
void AppendScored(const DistanceComputer* dist, uint32_t from,
                  std::span<const uint32_t> ids, std::vector<Neighbor>* out) {
  thread_local std::vector<float> dists;
  dists.resize(ids.size());
  dist->DistancesBetween(from, ids, dists.data());
  for (size_t i = 0; i < ids.size(); ++i) out->push_back({dists[i], ids[i]});
}

/// RobustPrune's working buffers, reused by every prune on its thread.
/// An id is pooled when its stamp equals the current epoch, so starting a
/// prune is an epoch bump, not a clear.
struct PruneScratch {
  std::vector<uint32_t> stamps;
  uint32_t epoch = 0;
  std::vector<uint32_t> ids;  ///< live candidates, nearest first
  std::vector<float> dists;   ///< their distances to the node
  std::vector<float> to_selected;  ///< and to the last selected neighbor

  void Begin(uint32_t max_id) {
    if (stamps.size() <= max_id) stamps.resize(size_t{max_id} + 1, 0);
    if (++epoch == 0) {  // wrapped: stamps from 2^32 prunes ago match
      std::fill(stamps.begin(), stamps.end(), 0);
      epoch = 1;
    }
    ids.clear();
    dists.clear();
  }
};

// --- Stage bodies -----------------------------------------------------

/// Initialization: approximate kNN lists via NN-Descent.
Status StageInitNNDescent(dag::DagContext* ctx) {
  MQA_ASSIGN_OR_RETURN(BuildState * s, GetState(ctx));
  MQA_ASSIGN_OR_RETURN(
      s->graph,
      BuildNNDescentGraph(s->dist, s->config.nn_descent_k,
                          s->config.nn_descent_iters, &s->rng,
                          &s->nn_descent_evals));
  s->graph.Reserve(std::max(s->config.max_degree, s->config.nn_descent_k));
  return Status::OK();
}

/// Initialization: random regular graph (Vamana style).
Status StageInitRandom(dag::DagContext* ctx) {
  MQA_ASSIGN_OR_RETURN(BuildState * s, GetState(ctx));
  const uint32_t n = s->dist->size();
  const uint32_t r = std::min(s->config.max_degree, n > 1 ? n - 1 : 0);
  AdjacencyGraph graph(n,
                       std::max(s->config.max_degree, s->config.nn_descent_k));
  for (uint32_t u = 0; u < n && r > 0; ++u) {
    std::unordered_set<uint32_t> chosen;
    std::vector<uint32_t> nbrs;
    nbrs.reserve(r);
    while (nbrs.size() < r) {
      uint32_t v = static_cast<uint32_t>(s->rng.NextUint64(n - 1));
      if (v >= u) ++v;
      if (chosen.insert(v).second) nbrs.push_back(v);
    }
    graph.SetNeighbors(u, nbrs);
  }
  s->graph = std::move(graph);
  return Status::OK();
}

/// Seed acquisition: the medoid is the fixed entry point of build-time and
/// query-time searches.
Status StageSeed(dag::DagContext* ctx) {
  MQA_ASSIGN_OR_RETURN(BuildState * s, GetState(ctx));
  s->medoid = ApproximateMedoid(s->dist, &s->rng);
  return Status::OK();
}

/// Neighbor selection only (KGraph): truncate kNN lists to max_degree.
Status StageTruncate(dag::DagContext* ctx) {
  MQA_ASSIGN_OR_RETURN(BuildState * s, GetState(ctx));
  const uint32_t r = s->config.max_degree;
  for (uint32_t u = 0; u < s->graph.num_nodes(); ++u) {
    const std::span<const uint32_t> nbrs = s->graph.neighbors(u);
    if (nbrs.size() <= r) continue;
    s->graph.SetNeighbors(u, std::vector<uint32_t>(nbrs.begin(),
                                                   nbrs.begin() + r));
  }
  return Status::OK();
}

/// The parameters every build and insert prunes with. A NaN alpha turns
/// occlusion off (every comparison with it is false), and an alpha below 1
/// occludes candidates nearer the node than to the occluder, which strips
/// the graph to a few edges per node that connectivity repair then routes
/// through one hub.
Status ValidateBuildParams(const GraphBuildConfig& config) {
  if (!std::isfinite(config.alpha) || config.alpha < 1.0f) {
    return Status::InvalidArgument("alpha must be finite and >= 1, got " +
                                   std::to_string(config.alpha));
  }
  if (config.max_degree == 0) {
    return Status::InvalidArgument("max_degree must be > 0");
  }
  if (config.build_beam == 0) {
    return Status::InvalidArgument("build_beam must be > 0");
  }
  return Status::OK();
}

/// Largest refinement batch. Batch sizes double from 1 up to this cap, so
/// the schedule depends on n alone; the cap bounds how many nodes refine
/// against a graph that does not yet hold each other's new edges.
constexpr size_t kMaxRefineBatch = 64;

/// Candidate acquisition + neighbor selection, fused per vertex as in the
/// reference implementations: search the graph for each vertex's own
/// vector, pool the evaluated vertices with the current neighbors, run
/// RobustPrune, then insert pruned reverse edges. Vertices are taken in a
/// random permutation, in batches (the batch insertion of ParlayANN): the
/// searches and prunes of one batch run on the thread pool against the
/// graph as it stood at the batch start, the new lists are committed in
/// permutation order, and each reverse-edge target takes its batch's edges
/// in batch order and is pruned once, in parallel over targets. The graph
/// is fixed by the seed and the batch schedule, whatever the pool size.
Status StageRefine(dag::DagContext* ctx, float alpha) {
  MQA_ASSIGN_OR_RETURN(BuildState * s, GetState(ctx));
  const uint32_t n = s->graph.num_nodes();
  const uint32_t r = s->config.max_degree;
  const std::vector<uint32_t> order = s->rng.Permutation(n);
  ThreadPool& pool = DefaultThreadPool();
  std::vector<std::vector<uint32_t>> selected;
  std::vector<std::pair<uint32_t, uint32_t>> backlinks;  // (target, source)
  std::vector<size_t> group_starts;
  size_t batch = 1;
  for (size_t begin = 0; begin < n;
       begin += batch, batch = std::min(2 * batch, kMaxRefineBatch)) {
    const size_t size = std::min<size_t>(batch, n - begin);
    selected.assign(size, {});
    pool.ParallelFor(size, [&](size_t i) {
      const uint32_t u = order[begin + i];
      std::vector<Neighbor> evaluated;
      BeamSearch(s->graph, s->dist, s->store->data(u), {s->medoid},
                 /*k=*/1, s->config.build_beam, nullptr, &evaluated);
      AppendScored(s->dist, u, s->graph.neighbors(u), &evaluated);
      selected[i] = RobustPrune(u, std::move(evaluated), alpha, r, s->dist);
    });

    backlinks.clear();
    for (size_t i = 0; i < size; ++i) {
      const uint32_t u = order[begin + i];
      for (uint32_t v : selected[i]) backlinks.emplace_back(v, u);
      s->graph.SetNeighbors(u, selected[i]);
    }
    std::stable_sort(backlinks.begin(), backlinks.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    group_starts.clear();
    for (size_t e = 0; e < backlinks.size(); ++e) {
      if (e == 0 || backlinks[e].first != backlinks[e - 1].first) {
        group_starts.push_back(e);
      }
    }
    // Reverse edges, pruning on overflow. Each task owns one target's list:
    // it builds the new list locally and commits it, within the degree
    // bound, so the concurrent commits touch disjoint slots.
    pool.ParallelFor(group_starts.size(), [&](size_t g) {
      const size_t first = group_starts[g];
      const size_t last = g + 1 < group_starts.size() ? group_starts[g + 1]
                                                      : backlinks.size();
      const uint32_t v = backlinks[first].first;
      const std::span<const uint32_t> current = s->graph.neighbors(v);
      std::vector<uint32_t> vn(current.begin(), current.end());
      for (size_t e = first; e < last; ++e) {
        const uint32_t u = backlinks[e].second;
        if (std::find(vn.begin(), vn.end(), u) == vn.end()) vn.push_back(u);
      }
      if (vn.size() > r) {
        std::vector<Neighbor> candidates;
        candidates.reserve(vn.size());
        AppendScored(s->dist, v, vn, &candidates);
        vn = RobustPrune(v, std::move(candidates), alpha, r, s->dist);
      }
      s->graph.SetNeighbors(v, vn);
    });
  }
  return Status::OK();
}

/// Connectivity assurance: repeatedly attach components unreachable from
/// the medoid, NSG-style (link the nearest reachable vertex to one
/// unreachable vertex per round, falling back to a direct medoid edge).
Status StageConnect(dag::DagContext* ctx) {
  MQA_ASSIGN_OR_RETURN(BuildState * s, GetState(ctx));
  const uint32_t n = s->graph.num_nodes();
  for (int round = 0; round < 64; ++round) {
    // BFS from the medoid.
    std::vector<bool> reachable(n, false);
    std::queue<uint32_t> frontier;
    frontier.push(s->medoid);
    reachable[s->medoid] = true;
    while (!frontier.empty()) {
      const uint32_t u = frontier.front();
      frontier.pop();
      for (uint32_t v : s->graph.neighbors(u)) {
        if (!reachable[v]) {
          reachable[v] = true;
          frontier.push(v);
        }
      }
    }
    uint32_t unreachable = n;
    for (uint32_t u = 0; u < n; ++u) {
      if (!reachable[u]) {
        unreachable = u;
        break;
      }
    }
    if (unreachable == n) return Status::OK();

    // Find the reachable vertex nearest to it and link from there.
    std::vector<Neighbor> near =
        BeamSearch(s->graph, s->dist, s->store->data(unreachable),
                   {s->medoid}, 1, s->config.build_beam, nullptr);
    uint32_t attach = near.empty() ? s->medoid : near[0].id;
    if (attach == unreachable) attach = s->medoid;
    s->graph.AddEdge(attach, unreachable);
  }
  // Give up gracefully: link any remaining stragglers straight to the
  // medoid so search never dead-ends.
  std::vector<bool> reachable(n, false);
  std::queue<uint32_t> frontier;
  frontier.push(s->medoid);
  reachable[s->medoid] = true;
  while (!frontier.empty()) {
    const uint32_t u = frontier.front();
    frontier.pop();
    for (uint32_t v : s->graph.neighbors(u)) {
      if (!reachable[v]) {
        reachable[v] = true;
        frontier.push(v);
      }
    }
  }
  for (uint32_t u = 0; u < n; ++u) {
    if (!reachable[u]) s->graph.AddEdge(s->medoid, u);
  }
  return Status::OK();
}

}  // namespace

std::vector<uint32_t> RobustPrune(uint32_t node,
                                  std::vector<Neighbor> candidates,
                                  float alpha, uint32_t max_degree,
                                  DistanceComputer* dist) {
  std::sort(candidates.begin(), candidates.end(), NeighborLess);
  // Dedupe by id, keeping each id's first (nearest) entry; the node itself
  // is stamped up front, so it never enters the pool.
  thread_local PruneScratch scratch;
  uint32_t max_id = node;
  for (const Neighbor& c : candidates) max_id = std::max(max_id, c.id);
  scratch.Begin(max_id);
  uint32_t* const stamps = scratch.stamps.data();
  const uint32_t epoch = scratch.epoch;
  std::vector<uint32_t>& ids = scratch.ids;
  std::vector<float>& dists = scratch.dists;
  stamps[node] = epoch;
  for (const Neighbor& c : candidates) {
    if (stamps[c.id] == epoch) continue;
    stamps[c.id] = epoch;
    ids.push_back(c.id);
    dists.push_back(c.distance);
  }

  // The live candidates stay nearest first at the front of ids/dists. The
  // nearest is selected; the rest are scored against it in one batched
  // call, and those it occludes drop out as the list is compacted, with
  // no branch per candidate.
  std::vector<uint32_t> selected;
  std::vector<float>& to_selected = scratch.to_selected;
  size_t live = ids.size();
  while (live > 0 && selected.size() < max_degree) {
    const uint32_t p = ids[0];
    selected.push_back(p);
    if (selected.size() == max_degree) break;
    const size_t rest = live - 1;
    to_selected.resize(rest);
    dist->DistancesBetween(p, std::span<const uint32_t>(ids.data() + 1, rest),
                           to_selected.data());
    size_t kept = 0;
    for (size_t j = 0; j < rest; ++j) {
      const uint32_t id = ids[j + 1];
      const float d = dists[j + 1];
      ids[kept] = id;
      dists[kept] = d;
      kept += !(alpha * to_selected[j] <= d);
    }
    live = kept;
  }
  return selected;
}

Result<std::unique_ptr<GraphIndex>> BuildGraphIndex(
    const GraphBuildConfig& config, const VectorStore* store,
    std::unique_ptr<DistanceComputer> dist, BuildReport* report) {
  if (store == nullptr || dist == nullptr) {
    return Status::InvalidArgument("store and distance computer are required");
  }
  if (store->size() == 0) {
    return Status::FailedPrecondition("cannot build an index over 0 vectors");
  }
  MQA_RETURN_NOT_OK(ValidateBuildParams(config));
  const std::string& algo = config.algorithm;
  const bool known = algo == "kgraph" || algo == "nsg" || algo == "vamana" ||
                     algo == "mqa-hybrid";
  if (!known) {
    return Status::InvalidArgument("unknown graph algorithm: " + algo);
  }

  dag::DagContext ctx;
  {
    BuildState state;
    state.config = config;
    state.store = store;
    state.dist = dist.get();
    state.rng = Rng(config.seed);
    ctx.Put(kStateKey, std::move(state));
  }

  // Assemble the five-part pipeline for the chosen algorithm.
  dag::DagPipeline pipeline(algo);
  const bool nn_init = algo != "vamana";
  MQA_RETURN_NOT_OK(pipeline.AddNode(
      "initialization", {}, nn_init ? StageInitNNDescent : StageInitRandom));
  MQA_RETURN_NOT_OK(
      pipeline.AddNode("seed_acquisition", {"initialization"}, StageSeed));
  std::string tail = "seed_acquisition";
  if (algo == "kgraph") {
    MQA_RETURN_NOT_OK(pipeline.AddNode("neighbor_selection", {tail},
                                       StageTruncate));
    tail = "neighbor_selection";
  } else if (algo == "nsg") {
    MQA_RETURN_NOT_OK(pipeline.AddNode(
        "refinement", {tail},
        [](dag::DagContext* c) { return StageRefine(c, 1.0f); }));
    tail = "refinement";
  } else if (algo == "vamana") {
    MQA_RETURN_NOT_OK(pipeline.AddNode(
        "refinement_pass1", {tail},
        [](dag::DagContext* c) { return StageRefine(c, 1.0f); }));
    const float alpha = config.alpha;
    MQA_RETURN_NOT_OK(pipeline.AddNode(
        "refinement_pass2", {"refinement_pass1"},
        [alpha](dag::DagContext* c) { return StageRefine(c, alpha); }));
    tail = "refinement_pass2";
  } else {  // mqa-hybrid
    const float alpha = config.alpha;
    MQA_RETURN_NOT_OK(pipeline.AddNode(
        "refinement", {tail},
        [alpha](dag::DagContext* c) { return StageRefine(c, alpha); }));
    tail = "refinement";
  }
  if (algo != "kgraph") {
    MQA_RETURN_NOT_OK(pipeline.AddNode("connectivity", {tail}, StageConnect));
  }

  Timer timer;
  MQA_RETURN_NOT_OK(ctx.Contains(kStateKey)
                        ? Status::OK()
                        : Status::Internal("missing build state"));
  // The stage chain is linear, so it runs on this thread; the expensive
  // stages fan out on DefaultThreadPool() themselves (a stage running as a
  // pool task could not: ParallelFor must not be entered from the pool).
  MQA_RETURN_NOT_OK(pipeline.Run(&ctx, /*parallel=*/false));
  const double total = timer.ElapsedSeconds();

  MQA_ASSIGN_OR_RETURN(BuildState * state, ctx.Get<BuildState>(kStateKey));
  if (report != nullptr) {
    report->algorithm = algo;
    report->total_seconds = total;
    report->stages = pipeline.reports();
    report->avg_degree = state->graph.AverageDegree();
    report->max_degree = state->graph.MaxDegree();
    report->medoid = state->medoid;
    report->connected = state->graph.IsConnectedFrom(state->medoid);
    report->nn_descent_evals = state->nn_descent_evals;
  }

  // Entry points: the medoid. A raw kNN graph (kgraph) has no long-range
  // links, so searches also start from random restarts to reach every
  // cluster — the standard KGraph search recipe.
  std::vector<uint32_t> entries{state->medoid};
  if (algo == "kgraph") {
    Rng entry_rng(config.seed ^ 0xe27);
    const uint32_t n = state->graph.num_nodes();
    for (uint32_t e : entry_rng.SampleWithoutReplacement(
             n, std::min<uint32_t>(n, 16))) {
      entries.push_back(e);
    }
  }
  return std::make_unique<GraphIndex>(algo, std::move(state->graph),
                                      std::move(dist), std::move(entries));
}

std::vector<std::string> GraphAlgorithms() {
  return {"kgraph", "nsg", "vamana", "mqa-hybrid"};
}

Status InsertIntoGraphIndex(GraphIndex* index, const VectorStore* store,
                            uint32_t new_id, const GraphBuildConfig& config) {
  if (index == nullptr || store == nullptr) {
    return Status::InvalidArgument("index and store are required");
  }
  MQA_RETURN_NOT_OK(ValidateBuildParams(config));
  AdjacencyGraph* graph = index->mutable_graph();
  if (new_id != graph->num_nodes()) {
    return Status::InvalidArgument("ids must stay dense: expected id " +
                                   std::to_string(graph->num_nodes()));
  }
  if (new_id >= store->size()) {
    return Status::FailedPrecondition(
        "the new vector must be in the store before insertion");
  }
  DistanceComputer* dist = index->distance();
  graph->AddNode();

  // Candidate acquisition: search for the new vector from the entries.
  std::vector<Neighbor> evaluated;
  BeamSearch(*graph, dist, store->data(new_id), index->entry_points(),
             /*k=*/1, config.build_beam, nullptr, &evaluated);
  std::vector<uint32_t> selected = RobustPrune(
      new_id, std::move(evaluated), config.alpha, config.max_degree, dist);
  graph->SetNeighbors(new_id, selected);

  // Pruned backlinks so the new node is reachable.
  for (uint32_t v : selected) {
    const std::span<const uint32_t> current = graph->neighbors(v);
    if (std::find(current.begin(), current.end(), new_id) != current.end()) {
      continue;
    }
    std::vector<uint32_t> vn(current.begin(), current.end());
    vn.push_back(new_id);
    if (vn.size() > config.max_degree) {
      std::vector<Neighbor> pool;
      pool.reserve(vn.size());
      AppendScored(dist, v, vn, &pool);
      vn = RobustPrune(v, std::move(pool), config.alpha, config.max_degree,
                       dist);
    }
    graph->SetNeighbors(v, vn);
  }
  // Degenerate safety: an empty selection (e.g. first insert into a
  // 1-node graph) still needs reachability.
  if (selected.empty() && new_id > 0) {
    graph->AddEdge(index->entry_points().empty()
                       ? 0
                       : index->entry_points()[0],
                   new_id);
  }
  return Status::OK();
}

Result<AdjacencyGraph> CompactAdjacency(const AdjacencyGraph& graph,
                                        const std::vector<uint32_t>& remap,
                                        uint32_t live_count,
                                        uint32_t max_degree) {
  if (remap.size() != graph.num_nodes()) {
    return Status::InvalidArgument("remap size does not match graph");
  }
  if (live_count == 0) {
    return Status::FailedPrecondition("cannot compact to an empty graph");
  }
  AdjacencyGraph compacted(live_count,
                           std::max(graph.capacity(), max_degree));
  std::vector<bool> visited(graph.num_nodes(), false);
  std::vector<uint32_t> queue;
  for (uint32_t node = 0; node < graph.num_nodes(); ++node) {
    const uint32_t new_id = remap[node];
    if (new_id == kTombstonedId) continue;
    // Splice: BFS through chains of dead neighbors; the first live node
    // on every such path becomes a direct edge.
    std::vector<uint32_t> selected;
    queue.clear();
    visited[node] = true;
    for (uint32_t n : graph.neighbors(node)) queue.push_back(n);
    for (size_t head = 0; head < queue.size(); ++head) {
      const uint32_t n = queue[head];
      if (visited[n]) continue;
      visited[n] = true;
      if (remap[n] != kTombstonedId) {
        selected.push_back(remap[n]);
        if (selected.size() >= max_degree) break;
      } else {
        for (uint32_t next : graph.neighbors(n)) queue.push_back(next);
      }
    }
    // Reset only the nodes this BFS touched (cheaper than a full clear).
    visited[node] = false;
    for (uint32_t n : queue) visited[n] = false;
    compacted.SetNeighbors(new_id, selected);
  }
  return compacted;
}

}  // namespace mqa
