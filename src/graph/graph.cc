#include "graph/graph.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <queue>

namespace mqa {

namespace {

constexpr uint32_t kGraphMagic = 0x4d514147;  // "MQAG"

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

std::span<const uint32_t> AdjacencyGraph::OverflowNeighbors(
    uint32_t node) const {
  return overflow_.at(node);
}

void AdjacencyGraph::AddEdge(uint32_t from, uint32_t to) {
  MQA_DCHECK_LT(from, num_nodes());
  MQA_DCHECK_LT(to, num_nodes());
  const uint32_t degree = degrees_[from];
  if (degree < capacity_) {
    slots_[static_cast<size_t>(from) * capacity_ + degree] = to;
  } else {
    std::vector<uint32_t>& list = overflow_[from];
    if (degree == capacity_) {
      const auto first = slots_.begin() + static_cast<size_t>(from) * capacity_;
      list.assign(first, first + degree);
    }
    list.push_back(to);
  }
  ++degrees_[from];
}

void AdjacencyGraph::SetNeighbors(uint32_t node,
                                  const std::vector<uint32_t>& neighbors) {
  MQA_DCHECK_LT(node, num_nodes());
  const uint32_t degree = static_cast<uint32_t>(neighbors.size());
  if (degree > capacity_) {
    overflow_[node] = neighbors;
  } else {
    if (degrees_[node] > capacity_) overflow_.erase(node);
    std::copy(neighbors.begin(), neighbors.end(),
              slots_.begin() + static_cast<size_t>(node) * capacity_);
  }
  degrees_[node] = degree;
}

void AdjacencyGraph::Reserve(uint32_t capacity) {
  if (capacity <= capacity_) return;
  std::vector<uint32_t> slots(static_cast<size_t>(num_nodes()) * capacity, 0);
  for (uint32_t u = 0; u < num_nodes(); ++u) {
    const std::span<const uint32_t> nbrs = neighbors(u);
    if (nbrs.size() > capacity) continue;
    std::copy(nbrs.begin(), nbrs.end(),
              slots.begin() + static_cast<size_t>(u) * capacity);
  }
  std::erase_if(overflow_, [capacity](const auto& entry) {
    return entry.second.size() <= capacity;
  });
  slots_ = std::move(slots);
  capacity_ = capacity;
}

uint64_t AdjacencyGraph::num_edges() const {
  uint64_t n = 0;
  for (uint32_t degree : degrees_) n += degree;
  return n;
}

double AdjacencyGraph::AverageDegree() const {
  if (degrees_.empty()) return 0.0;
  return static_cast<double>(num_edges()) /
         static_cast<double>(degrees_.size());
}

uint32_t AdjacencyGraph::MaxDegree() const {
  uint32_t max_deg = 0;
  for (uint32_t degree : degrees_) max_deg = std::max(max_deg, degree);
  return max_deg;
}

uint32_t AdjacencyGraph::ReachableFrom(uint32_t start) const {
  if (start >= num_nodes()) return 0;
  std::vector<bool> visited(num_nodes(), false);
  std::queue<uint32_t> frontier;
  frontier.push(start);
  visited[start] = true;
  uint32_t count = 1;
  while (!frontier.empty()) {
    const uint32_t u = frontier.front();
    frontier.pop();
    for (uint32_t v : neighbors(u)) {
      if (!visited[v]) {
        visited[v] = true;
        ++count;
        frontier.push(v);
      }
    }
  }
  return count;
}

Status AdjacencyGraph::Save(std::ostream& out) const {
  WritePod(out, kGraphMagic);
  WritePod(out, num_nodes());
  for (uint32_t u = 0; u < num_nodes(); ++u) {
    const std::span<const uint32_t> nbrs = neighbors(u);
    WritePod(out, static_cast<uint32_t>(nbrs.size()));
    out.write(reinterpret_cast<const char*>(nbrs.data()),
              static_cast<std::streamsize>(nbrs.size() * sizeof(uint32_t)));
  }
  if (!out) return Status::IoError("failed to write graph");
  return Status::OK();
}

Result<AdjacencyGraph> AdjacencyGraph::Load(std::istream& in) {
  uint32_t magic = 0;
  if (!ReadPod(in, &magic) || magic != kGraphMagic) {
    return Status::IoError("bad graph header");
  }
  uint32_t n = 0;
  if (!ReadPod(in, &n)) return Status::IoError("truncated node count");
  // Every list is read into one flat buffer first, in chunks, so memory
  // follows the bytes actually present, never the counts claimed.
  constexpr uint32_t kChunk = 4096;
  std::vector<uint32_t> degrees;
  std::vector<uint32_t> edges;
  uint32_t longest = 0;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t deg = 0;
    if (!ReadPod(in, &deg) || deg > n) {
      return Status::IoError("bad degree in graph file");
    }
    const size_t first = edges.size();
    for (uint32_t done = 0; done < deg;) {
      const uint32_t chunk = std::min(deg - done, kChunk);
      const size_t at = edges.size();
      edges.resize(at + chunk);
      in.read(reinterpret_cast<char*>(edges.data() + at),
              static_cast<std::streamsize>(chunk * sizeof(uint32_t)));
      if (!in) return Status::IoError("truncated adjacency list");
      done += chunk;
    }
    for (size_t e = first; e < edges.size(); ++e) {
      if (edges[e] >= n) return Status::IoError("neighbor id out of range");
    }
    degrees.push_back(deg);
    longest = std::max(longest, deg);
  }
  // Slots for the longest list, unless that would take more than about
  // four times the edges read: outsized lists (a hub, say) then overflow.
  const uint64_t bound = n == 0 ? 0 : 4 * (edges.size() / n + 1);
  AdjacencyGraph graph(
      n, static_cast<uint32_t>(std::min<uint64_t>(longest, bound)));
  std::vector<uint32_t> list;
  size_t next = 0;
  for (uint32_t i = 0; i < n; ++i) {
    list.assign(edges.begin() + next, edges.begin() + next + degrees[i]);
    next += degrees[i];
    graph.SetNeighbors(i, list);
  }
  return graph;
}

}  // namespace mqa
