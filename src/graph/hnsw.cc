#include "graph/hnsw.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <queue>

namespace mqa {

Result<std::unique_ptr<HnswIndex>> HnswIndex::Build(
    const HnswConfig& config, const VectorStore* store,
    std::unique_ptr<DistanceComputer> dist) {
  if (store == nullptr || dist == nullptr) {
    return Status::InvalidArgument("store and distance computer are required");
  }
  if (store->size() == 0) {
    return Status::FailedPrecondition("cannot build an index over 0 vectors");
  }
  if (config.m < 2) return Status::InvalidArgument("m must be >= 2");
  std::unique_ptr<HnswIndex> index(
      new HnswIndex(config, store, std::move(dist)));
  const uint32_t n = store->size();
  index->levels_.reserve(n);
  index->links_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) index->Insert(i);
  return index;
}

void HnswIndex::Insert(uint32_t id) {
  // Exponentially distributed level: floor(-ln(U) * 1/ln(M)).
  const double ml = 1.0 / std::log(static_cast<double>(config_.m));
  double u = rng_.UniformDouble();
  while (u <= 1e-300) u = rng_.UniformDouble();
  const int level = static_cast<int>(-std::log(u) * ml);

  levels_.push_back(level);
  links_.emplace_back(static_cast<size_t>(level) + 1);

  if (max_level_ < 0) {
    // First element.
    entry_point_ = id;
    max_level_ = level;
    return;
  }

  const float* q = store_->data(id);
  DistanceContext ctx;
  uint32_t cur = entry_point_;
  float cur_dist = dist_->Distance(q, cur, &ctx);

  // Greedy descent through layers above the insertion level.
  for (int layer = max_level_; layer > level; --layer) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (uint32_t nbr : links_[cur][layer]) {
        const float d = dist_->Distance(q, nbr, &ctx);
        if (d < cur_dist) {
          cur = nbr;
          cur_dist = d;
          improved = true;
        }
      }
    }
  }

  // Connect at each layer from min(level, max_level_) down to 0.
  for (int layer = std::min(level, max_level_); layer >= 0; --layer) {
    std::vector<Neighbor> candidates =
        SearchLayer(q, cur, cur_dist, config_.ef_construction, layer,
                    nullptr, &ctx);
    const uint32_t m_max = layer == 0 ? config_.m * 2 : config_.m;
    std::vector<uint32_t> selected =
        SelectNeighbors(id, candidates, config_.m);
    links_[id][layer] = selected;
    // Backlinks with shrink-on-overflow.
    for (uint32_t nbr : selected) {
      auto& nbr_links = links_[nbr][layer];
      nbr_links.push_back(id);
      if (nbr_links.size() > m_max) {
        std::vector<Neighbor> pool;
        pool.reserve(nbr_links.size());
        for (uint32_t w : nbr_links) {
          pool.push_back({dist_->DistanceBetween(nbr, w), w});
        }
        nbr_links = SelectNeighbors(nbr, std::move(pool), m_max);
      }
    }
    if (!candidates.empty()) {
      cur = candidates[0].id;
      cur_dist = candidates[0].distance;
    }
  }

  dist_->AddTally(ctx.tally);
  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = id;
  }
}

std::vector<Neighbor> HnswIndex::SearchLayer(const float* query,
                                             uint32_t entry, float entry_dist,
                                             size_t ef, int layer,
                                             SearchStats* stats,
                                             DistanceContext* ctx,
                                             const SearchFilter& filter,
                                             size_t k) const {
  std::vector<bool> visited(levels_.size(), false);
  auto cand_greater = [](const Neighbor& a, const Neighbor& b) {
    return NeighborLess(b, a);
  };
  std::priority_queue<Neighbor, std::vector<Neighbor>, decltype(cand_greater)>
      frontier(cand_greater);
  TopK beam(ef);
  TopK admitted(k > 0 ? k : ef);

  visited[entry] = true;
  frontier.push({entry_dist, entry});
  beam.Push(entry_dist, entry);
  if (filter && filter(entry)) admitted.Push(entry_dist, entry);

  // Two-pass adjacency scan (collect + prefetch, then score), same as
  // BeamSearch in graph/search.cc; scoring order is unchanged.
  std::vector<uint32_t> to_score;

  while (!frontier.empty()) {
    const Neighbor current = frontier.top();
    frontier.pop();
    if (beam.Full() && current.distance > beam.WorstDistance()) break;
    if (stats != nullptr) ++stats->hops;
    if (static_cast<size_t>(layer) >= links_[current.id].size()) continue;
    to_score.clear();
    for (uint32_t nbr : links_[current.id][layer]) {
      if (visited[nbr]) continue;
      visited[nbr] = true;
      to_score.push_back(nbr);
    }
    for (uint32_t nbr : to_score) dist_->Prefetch(nbr);
    for (uint32_t nbr : to_score) {
      const float bound = beam.Full() ? beam.WorstDistance()
                                      : std::numeric_limits<float>::max();
      const float d = dist_->DistanceWithBound(query, nbr, bound, ctx);
      if (stats != nullptr) ++stats->dist_comps;
      if (d > bound) continue;
      frontier.push({d, nbr});
      beam.Push(d, nbr);
      if (filter && filter(nbr)) admitted.Push(d, nbr);
    }
  }
  return filter ? admitted.TakeSorted() : beam.TakeSorted();
}

std::vector<uint32_t> HnswIndex::SelectNeighbors(
    uint32_t node, std::vector<Neighbor> candidates, uint32_t m) const {
  std::sort(candidates.begin(), candidates.end(), NeighborLess);
  std::vector<uint32_t> selected;
  std::vector<Neighbor> kept;
  for (const Neighbor& c : candidates) {
    if (c.id == node) continue;
    if (selected.size() >= m) break;
    bool good = true;
    for (const Neighbor& s : kept) {
      if (dist_->DistanceBetween(s.id, c.id) < c.distance) {
        good = false;
        break;
      }
    }
    if (good) {
      selected.push_back(c.id);
      kept.push_back(c);
    }
  }
  // Fallback: if diversification kept too few, pad with the closest
  // remaining candidates (keepPrunedConnections).
  if (selected.size() < m) {
    for (const Neighbor& c : candidates) {
      if (selected.size() >= m) break;
      if (c.id == node) continue;
      if (std::find(selected.begin(), selected.end(), c.id) ==
          selected.end()) {
        selected.push_back(c.id);
      }
    }
  }
  return selected;
}

Result<std::vector<Neighbor>> HnswIndex::Search(const float* query,
                                                const SearchParams& params,
                                                SearchStats* stats) const {
  if (params.k == 0) return Status::InvalidArgument("k must be > 0");
  if (levels_.empty()) return Status::FailedPrecondition("empty index");

  DistanceContext ctx{params.distance, {}};
  uint32_t cur = entry_point_;
  float cur_dist = dist_->Distance(query, cur, &ctx);
  if (stats != nullptr) ++stats->dist_comps;
  for (int layer = max_level_; layer > 0; --layer) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (uint32_t nbr : links_[cur][layer]) {
        const float d = dist_->Distance(query, nbr, &ctx);
        if (stats != nullptr) ++stats->dist_comps;
        if (d < cur_dist) {
          cur = nbr;
          cur_dist = d;
          improved = true;
        }
      }
      if (stats != nullptr) ++stats->hops;
    }
  }
  std::vector<Neighbor> results = SearchLayer(
      query, cur, cur_dist, std::max(params.beam_width, params.k), 0, stats,
      &ctx, params.filter, params.k);
  dist_->AddTally(ctx.tally);
  if (results.size() > params.k) results.resize(params.k);
  return results;
}

Status HnswIndex::InsertAppended() {
  const uint32_t new_id = static_cast<uint32_t>(levels_.size());
  if (new_id >= store_->size()) {
    return Status::FailedPrecondition(
        "append the vector to the store before inserting");
  }
  Insert(new_id);
  return Status::OK();
}

namespace {
constexpr uint32_t kHnswMagic = 0x4d514148;  // "MQAH"

template <typename T>
void WritePod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}
template <typename T>
bool ReadPod(std::istream& in, T* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(T));
  return static_cast<bool>(in);
}
}  // namespace

Status HnswIndex::Save(std::ostream& out) const {
  WritePod(out, kHnswMagic);
  WritePod(out, static_cast<uint32_t>(levels_.size()));
  WritePod(out, entry_point_);
  WritePod(out, max_level_);
  for (size_t i = 0; i < levels_.size(); ++i) {
    WritePod(out, levels_[i]);
    for (const auto& layer : links_[i]) {
      WritePod(out, static_cast<uint32_t>(layer.size()));
      out.write(reinterpret_cast<const char*>(layer.data()),
                static_cast<std::streamsize>(layer.size() *
                                             sizeof(uint32_t)));
    }
  }
  if (!out) return Status::IoError("failed to write hnsw index");
  return Status::OK();
}

Result<std::unique_ptr<HnswIndex>> HnswIndex::Load(
    std::istream& in, const HnswConfig& config, const VectorStore* store,
    std::unique_ptr<DistanceComputer> dist) {
  if (store == nullptr || dist == nullptr) {
    return Status::InvalidArgument("store and distance computer are required");
  }
  uint32_t magic = 0;
  if (!ReadPod(in, &magic) || magic != kHnswMagic) {
    return Status::IoError("bad hnsw header");
  }
  uint32_t n = 0;
  if (!ReadPod(in, &n)) return Status::IoError("truncated node count");
  if (n != store->size()) {
    return Status::InvalidArgument("saved hnsw does not match the store");
  }
  std::unique_ptr<HnswIndex> index(
      new HnswIndex(config, store, std::move(dist)));
  if (!ReadPod(in, &index->entry_point_) ||
      !ReadPod(in, &index->max_level_)) {
    return Status::IoError("truncated hnsw header");
  }
  index->levels_.resize(n);
  index->links_.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!ReadPod(in, &index->levels_[i]) || index->levels_[i] < 0 ||
        index->levels_[i] > 64) {
      return Status::IoError("bad level in hnsw file");
    }
    index->links_[i].resize(static_cast<size_t>(index->levels_[i]) + 1);
    for (auto& layer : index->links_[i]) {
      uint32_t deg = 0;
      if (!ReadPod(in, &deg) || deg > n) {
        return Status::IoError("bad degree in hnsw file");
      }
      layer.resize(deg);
      in.read(reinterpret_cast<char*>(layer.data()),
              static_cast<std::streamsize>(deg * sizeof(uint32_t)));
      if (!in) return Status::IoError("truncated hnsw links");
    }
  }
  // Search walks links_[node][layer] from the entry point down, so every
  // id it can reach must be in range and present on the layer it is
  // linked from.
  if (n == 0 ? index->max_level_ != -1
             : index->entry_point_ >= n ||
                   index->max_level_ != index->levels_[index->entry_point_]) {
    return Status::IoError("bad hnsw entry point");
  }
  for (uint32_t i = 0; i < n; ++i) {
    if (index->levels_[i] > index->max_level_) {
      return Status::IoError("hnsw level above the top layer");
    }
    for (size_t layer = 0; layer < index->links_[i].size(); ++layer) {
      for (uint32_t v : index->links_[i][layer]) {
        if (v >= n || static_cast<size_t>(index->levels_[v]) < layer) {
          return Status::IoError("hnsw link out of range");
        }
      }
    }
  }
  return index;
}

uint64_t HnswIndex::MemoryBytes() const {
  uint64_t bytes = 0;
  for (const auto& per_node : links_) {
    for (const auto& layer : per_node) bytes += layer.size() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace mqa
