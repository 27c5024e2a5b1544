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

uint64_t AdjacencyGraph::num_edges() const {
  uint64_t n = 0;
  for (const auto& nbrs : adj_) n += nbrs.size();
  return n;
}

double AdjacencyGraph::AverageDegree() const {
  if (adj_.empty()) return 0.0;
  return static_cast<double>(num_edges()) / static_cast<double>(adj_.size());
}

uint32_t AdjacencyGraph::MaxDegree() const {
  uint32_t max_deg = 0;
  for (const auto& nbrs : adj_) {
    max_deg = std::max(max_deg, static_cast<uint32_t>(nbrs.size()));
  }
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
    for (uint32_t v : adj_[u]) {
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
  for (const auto& nbrs : adj_) {
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
  AdjacencyGraph graph(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t deg = 0;
    if (!ReadPod(in, &deg) || deg > n) {
      return Status::IoError("bad degree in graph file");
    }
    std::vector<uint32_t> nbrs(deg);
    in.read(reinterpret_cast<char*>(nbrs.data()),
            static_cast<std::streamsize>(deg * sizeof(uint32_t)));
    if (!in) return Status::IoError("truncated adjacency list");
    for (uint32_t v : nbrs) {
      if (v >= n) return Status::IoError("neighbor id out of range");
    }
    graph.SetNeighbors(i, std::move(nbrs));
  }
  return graph;
}

}  // namespace mqa
