// Portable scalar kernels — the dispatch fallback and the reference the
// parity fuzz suite compares every SIMD tier against. The loop structure
// (four independent accumulators, scalar tail) is kept bit-identical to
// the pre-dispatch implementation in vector/distance.cc so scalar-level
// runs reproduce historical results exactly.

#include "vector/simd/kernels.h"

namespace mqa {
namespace simd_internal {

namespace {

float L2SqScalar(const float* a, const float* b, size_t dim) {
  float s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  float sum = s0 + s1 + s2 + s3;
  for (; i < dim; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

/// Weighted multi-segment L2: one L2SqScalar per segment, summed in the
/// order given. The running sum is a scalar, so the boundary check is one
/// comparison, and with a bound of +inf it never fires.
float WL2SqScalar(const float* q, const float* o, const size_t* offsets,
                  const uint32_t* dims, const float* weights, size_t num_m,
                  float bound, size_t* segments) {
  float sum = 0.0f;
  size_t m = 0;
  while (m < num_m) {
    sum += weights[m] * L2SqScalar(q + offsets[m], o + offsets[m], dims[m]);
    ++m;
    if (m < num_m && sum > bound) break;
  }
  if (segments != nullptr) *segments = m;
  return sum;
}

/// One row at a time through WL2SqScalar.
void WL2SqRowsScalar(const float* q, const float* base, size_t stride,
                     const uint32_t* ids, size_t n, const size_t* offsets,
                     const uint32_t* dims, const float* weights,
                     size_t num_m, float* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = WL2SqScalar(q, RowAt(base, stride, ids, i), offsets, dims,
                         weights, num_m, kNoBound, nullptr);
  }
}

float DotScalar(const float* a, const float* b, size_t dim) {
  float s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  float sum = s0 + s1 + s2 + s3;
  for (; i < dim; ++i) sum += a[i] * b[i];
  return sum;
}

}  // namespace

const DistanceKernels& ScalarKernels() {
  static const DistanceKernels kTable = {&L2SqScalar, &DotScalar,
                                         &WL2SqScalar, &WL2SqRowsScalar};
  return kTable;
}

}  // namespace simd_internal
}  // namespace mqa
