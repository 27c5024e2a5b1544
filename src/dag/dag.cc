#include "dag/dag.h"

#include <exception>
#include <queue>
#include <string>

#include "common/metrics.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"

namespace mqa::dag {

Status DagPipeline::AddNode(const std::string& name,
                            std::vector<std::string> deps, NodeFn fn) {
  if (name.empty()) return Status::InvalidArgument("node name is empty");
  if (index_.count(name) > 0) {
    return Status::AlreadyExists("duplicate node: " + name);
  }
  if (!fn) return Status::InvalidArgument("node has no body: " + name);
  index_[name] = nodes_.size();
  Histogram* stage_ms =
      MetricsRegistry::Global().GetHistogram("dag/stage_ms/" + name);
  nodes_.push_back(Node{name, std::move(deps), std::move(fn), stage_ms});
  return Status::OK();
}

Status DagPipeline::Validate() const {
  // Unknown dependencies.
  for (const auto& node : nodes_) {
    for (const auto& dep : node.deps) {
      if (index_.count(dep) == 0) {
        return Status::InvalidArgument("node '" + node.name +
                                       "' depends on unknown node '" + dep +
                                       "'");
      }
      if (dep == node.name) {
        return Status::InvalidArgument("node '" + node.name +
                                       "' depends on itself");
      }
    }
  }
  // Cycle check via Kahn's algorithm.
  std::vector<size_t> indegree(nodes_.size(), 0);
  std::vector<std::vector<size_t>> out(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (const auto& dep : nodes_[i].deps) {
      const size_t d = index_.at(dep);
      out[d].push_back(i);
      ++indegree[i];
    }
  }
  std::queue<size_t> ready;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (indegree[i] == 0) ready.push(i);
  }
  size_t visited = 0;
  while (!ready.empty()) {
    const size_t u = ready.front();
    ready.pop();
    ++visited;
    for (size_t v : out[u]) {
      if (--indegree[v] == 0) ready.push(v);
    }
  }
  if (visited != nodes_.size()) {
    return Status::InvalidArgument("pipeline '" + name_ + "' has a cycle");
  }
  return Status::OK();
}

Status DagPipeline::Run(DagContext* ctx, bool parallel) {
  MQA_RETURN_NOT_OK(Validate());
  reports_.clear();
  if (nodes_.empty()) return Status::OK();

  std::vector<size_t> indegree(nodes_.size(), 0);
  std::vector<std::vector<size_t>> out(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (const auto& dep : nodes_[i].deps) {
      const size_t d = index_.at(dep);
      out[d].push_back(i);
      ++indegree[i];
    }
  }

  Mutex mu;
  CondVar cv;
  std::queue<size_t> ready;
  size_t completed = 0;
  size_t inflight = 0;
  Status first_error;
  bool failed = false;

  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (indegree[i] == 0) ready.push(i);
  }

  // Capture the caller's ambient trace so stages dispatched to pool
  // threads still record under the pipeline's span (TLS does not cross
  // thread boundaries by itself). The trace object is thread-safe.
  Trace* const trace = ActiveTrace();
  const int32_t trace_parent = ActiveSpanId();

  auto run_node = [&](size_t i) {
    // Re-install the pipeline's trace on whichever thread runs the stage;
    // the stage span nests under the caller's current span.
    ScopedTrace scoped_trace(trace, trace_parent);
    Span span(trace != nullptr ? "dag/" + nodes_[i].name : std::string());
    Timer timer;
    // A stage that throws must still be accounted for: in parallel mode the
    // pool's future is never drained, so an escaping exception would leave
    // `inflight` forever nonzero and deadlock Run() on the cv. Convert to a
    // Status instead.
    Status st;
    try {
      st = nodes_[i].fn(ctx);
    } catch (const std::exception& e) {
      st = Status::Internal("node '" + nodes_[i].name +
                            "' threw: " + e.what());
    } catch (...) {
      st = Status::Internal("node '" + nodes_[i].name +
                            "' threw a non-std exception");
    }
    const double ms = timer.ElapsedMillis();
    static Histogram* const stage_ms =
        MetricsRegistry::Global().GetHistogram("dag/stage_ms");
    stage_ms->Record(ms);
    nodes_[i].stage_ms->Record(ms);
    if (!st.ok()) {
      static Counter* const stage_failures =
          MetricsRegistry::Global().GetCounter("dag/stage_failures");
      stage_failures->Increment();
    }
    MutexLock lock(&mu);
    reports_.push_back(NodeReport{nodes_[i].name, ms, st});
    --inflight;
    ++completed;
    if (!st.ok()) {
      if (!failed) {
        failed = true;
        first_error = st;
      }
    } else {
      for (size_t v : out[i]) {
        if (--indegree[v] == 0) ready.push(v);
      }
    }
    cv.NotifyAll();
  };

  if (!parallel) {
    // Sequential execution in a deterministic topological order.
    while (!ready.empty()) {
      const size_t i = ready.front();
      ready.pop();
      ++inflight;
      run_node(i);
      if (failed) return first_error;
    }
    if (completed != nodes_.size()) {
      return Status::Internal("pipeline deadlock (should be unreachable)");
    }
    return Status::OK();
  }

  ThreadPool& pool = DefaultThreadPool();
  // Stage completion is tracked by completed/inflight under `mu` plus the
  // CondVar, so stages are Post()ed fire-and-forget (no per-stage future;
  // run_node converts exceptions to Status itself).
  MutexLock lock(&mu);
  for (;;) {
    while (!failed && !ready.empty()) {
      const size_t i = ready.front();
      ready.pop();
      ++inflight;
      pool.Post([&run_node, i] { run_node(i); });
    }
    if (failed && inflight == 0) return first_error;
    if (completed == nodes_.size()) return Status::OK();
    if (ready.empty() && inflight == 0) {
      return Status::Internal("pipeline stalled with unscheduled nodes");
    }
    cv.Wait(&mu);
  }
}

std::vector<std::string> DagPipeline::NodeNames() const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const auto& n : nodes_) names.push_back(n.name);
  return names;
}

}  // namespace mqa::dag
