#ifndef MQA_DAG_DAG_H_
#define MQA_DAG_DAG_H_

#include <any>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"

namespace mqa {
class Histogram;
}  // namespace mqa

namespace mqa::dag {

/// Shared blackboard passed through a pipeline run. Stages publish results
/// under string keys; later stages read them. Thread-safe, since independent
/// stages may run concurrently.
class DagContext {
 public:
  /// Stores `value` under `key`, replacing any previous entry.
  template <typename T>
  void Put(const std::string& key, T value) {
    MutexLock lock(&mu_);
    values_[key] = std::make_shared<std::any>(std::move(value));
  }

  /// Fetches the value stored under `key` as a mutable pointer, or an error
  /// when absent / of the wrong type. The pointee stays owned by the
  /// context; single-writer discipline between dependent stages is
  /// guaranteed by the DAG ordering.
  template <typename T>
  Result<T*> Get(const std::string& key) {
    std::shared_ptr<std::any> holder;
    {
      MutexLock lock(&mu_);
      auto it = values_.find(key);
      if (it == values_.end()) {
        return Status::NotFound("context key not found: " + key);
      }
      holder = it->second;
    }
    T* ptr = std::any_cast<T>(holder.get());
    if (ptr == nullptr) {
      return Status::InvalidArgument("context key has wrong type: " + key);
    }
    return ptr;
  }

  bool Contains(const std::string& key) const {
    MutexLock lock(&mu_);
    return values_.count(key) > 0;
  }

 private:
  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<std::any>> values_ MQA_GUARDED_BY(mu_);
};

/// The body of a pipeline stage.
using NodeFn = std::function<Status(DagContext*)>;

/// Per-node execution record, surfaced to the status-monitoring panel.
struct NodeReport {
  std::string name;
  double elapsed_ms = 0.0;
  Status status;
};

/// A directed-acyclic pipeline of named stages — our stand-in for the
/// CGraph framework the paper builds index pipelines on. Nodes declare
/// dependencies by name; Run() executes them in a topological order,
/// dispatching independent ready nodes to a thread pool.
class DagPipeline {
 public:
  explicit DagPipeline(std::string name = "pipeline")
      : name_(std::move(name)) {}

  /// Registers a stage. `deps` are names of stages that must complete
  /// first. Duplicate names are rejected. Each run of the stage is timed
  /// into the pooled `dag/stage_ms` histogram and into its own
  /// `dag/stage_ms/<name>`.
  Status AddNode(const std::string& name, std::vector<std::string> deps,
                 NodeFn fn);

  /// Validates the graph (unknown deps, cycles) without running it.
  Status Validate() const;

  /// Executes all stages. Stops scheduling new work after the first stage
  /// failure and returns that stage's status. `parallel` controls whether
  /// independent ready stages run concurrently.
  Status Run(DagContext* ctx, bool parallel = true);

  /// Execution records of the most recent Run(), in completion order.
  const std::vector<NodeReport>& reports() const { return reports_; }

  const std::string& name() const { return name_; }
  size_t num_nodes() const { return nodes_.size(); }

  /// Names of all stages in registration order (for introspection/tests).
  std::vector<std::string> NodeNames() const;

 private:
  struct Node {
    std::string name;
    std::vector<std::string> deps;
    NodeFn fn;
    Histogram* stage_ms;  ///< `dag/stage_ms/<name>`, resolved in AddNode
  };

  std::string name_;
  std::vector<Node> nodes_;
  std::map<std::string, size_t> index_;
  std::vector<NodeReport> reports_;
};

}  // namespace mqa::dag

#endif  // MQA_DAG_DAG_H_
