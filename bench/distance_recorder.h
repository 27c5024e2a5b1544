#ifndef MQA_BENCH_DISTANCE_RECORDER_H_
#define MQA_BENCH_DISTANCE_RECORDER_H_

#include <cstdint>
#include <vector>

#include "vector/vector_store.h"

namespace mqa::bench {

/// One query distance call of a search, as the traversal issued it.
struct DistanceCall {
  uint32_t id;
  float value;
};

/// Forwards to a real distance computer and records every query distance,
/// so a bench can replay a search's calls without its traversal.
class RecordingDistance : public DistanceComputer {
 public:
  RecordingDistance(const DistanceComputer* base,
                    std::vector<DistanceCall>* calls)
      : base_(base), calls_(calls) {}

  float Distance(const float* q, uint32_t id,
                 DistanceContext* ctx) const override {
    const float d = base_->Distance(q, id, ctx);
    calls_->push_back({id, d});
    return d;
  }
  void Prefetch(uint32_t id) const override { base_->Prefetch(id); }
  float DistanceBetween(uint32_t a, uint32_t b) const override {
    return base_->DistanceBetween(a, b);
  }
  size_t dim() const override { return base_->dim(); }
  uint32_t size() const override { return base_->size(); }

 private:
  const DistanceComputer* base_;
  std::vector<DistanceCall>* calls_;
};

}  // namespace mqa::bench

#endif  // MQA_BENCH_DISTANCE_RECORDER_H_
