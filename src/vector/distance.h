#ifndef MQA_VECTOR_DISTANCE_H_
#define MQA_VECTOR_DISTANCE_H_

#include <cstddef>
#include <string>

#include "vector/vector_types.h"

namespace mqa {

/// Distance metrics. All are "smaller is closer"; similarities (inner
/// product, cosine) are mapped so that graph search can treat every metric
/// uniformly.
enum class Metric {
  kL2,            ///< squared Euclidean distance
  kInnerProduct,  ///< negative dot product
  kCosine,        ///< 1 - cosine similarity (in [0, 2])
};

/// Parses "l2" / "ip" / "cosine" (case-insensitive); defaults to kL2 on
/// unknown input.
Metric MetricFromString(const std::string& name);
const char* MetricToString(Metric metric);

/// Squared Euclidean distance between a and b (both of length dim).
float L2Sq(const float* a, const float* b, size_t dim);

/// Dot product.
float Dot(const float* a, const float* b, size_t dim);

/// Euclidean norm.
float Norm(const float* a, size_t dim);

/// 1 - cosine similarity. Returns 1 when either vector is all-zero.
float CosineDistance(const float* a, const float* b, size_t dim);

/// Dispatches on `metric`.
float ComputeDistance(Metric metric, const float* a, const float* b,
                      size_t dim);

/// In-place L2 normalization; zero vectors are left unchanged.
void NormalizeVector(float* v, size_t dim);
void NormalizeVector(Vector* v);

}  // namespace mqa

#endif  // MQA_VECTOR_DISTANCE_H_
