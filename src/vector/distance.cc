#include "vector/distance.h"

#include <cmath>

#include "common/string_util.h"
#include "vector/simd/simd.h"

namespace mqa {

Metric MetricFromString(const std::string& name) {
  const std::string n = ToLower(name);
  if (n == "ip" || n == "innerproduct" || n == "inner_product") {
    return Metric::kInnerProduct;
  }
  if (n == "cosine" || n == "cos") return Metric::kCosine;
  return Metric::kL2;
}

const char* MetricToString(Metric metric) {
  switch (metric) {
    case Metric::kL2:
      return "l2";
    case Metric::kInnerProduct:
      return "ip";
    case Metric::kCosine:
      return "cosine";
  }
  return "l2";
}

float L2Sq(const float* a, const float* b, size_t dim) {
  // Dispatched to the active ISA tier (see vector/simd/); the scalar tier
  // keeps the historical four-accumulator loop bit-identically.
  return ActiveKernels().l2sq(a, b, dim);
}

float Dot(const float* a, const float* b, size_t dim) {
  return ActiveKernels().dot(a, b, dim);
}

float Norm(const float* a, size_t dim) { return std::sqrt(Dot(a, a, dim)); }

float CosineDistance(const float* a, const float* b, size_t dim) {
  const float na = Norm(a, dim);
  const float nb = Norm(b, dim);
  if (na == 0.0f || nb == 0.0f) return 1.0f;
  return 1.0f - Dot(a, b, dim) / (na * nb);
}

float ComputeDistance(Metric metric, const float* a, const float* b,
                      size_t dim) {
  switch (metric) {
    case Metric::kL2:
      return L2Sq(a, b, dim);
    case Metric::kInnerProduct:
      return -Dot(a, b, dim);
    case Metric::kCosine:
      return CosineDistance(a, b, dim);
  }
  return L2Sq(a, b, dim);
}

void NormalizeVector(float* v, size_t dim) {
  const float n = Norm(v, dim);
  if (n == 0.0f) return;
  const float inv = 1.0f / n;
  for (size_t i = 0; i < dim; ++i) v[i] *= inv;
}

void NormalizeVector(Vector* v) { NormalizeVector(v->data(), v->size()); }

}  // namespace mqa
