// AVX2+FMA kernels: two 8-wide FMA accumulator chains plus a scalar tail.
// This translation unit is the only place (besides kernels_avx512.cc)
// allowed to include <immintrin.h> (lint rule `raw-intrinsics`), and it is
// compiled with -mavx2 -mfma on x86_64 builds only; the functions are
// reached solely through the dispatch table after a CPUID check.

#include "vector/simd/kernels.h"

#if defined(MQA_SIMD_X86)
#include <immintrin.h>

#include <cmath>
#endif

namespace mqa {
namespace simd_internal {

#if defined(MQA_SIMD_X86)

namespace {

float HorizontalSum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

float L2SqAvx2(const float* a, const float* b, size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  float sum = HorizontalSum256(_mm256_add_ps(acc0, acc1));
  for (; i < dim; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

float DotAvx2(const float* a, const float* b, size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float sum = HorizontalSum256(_mm256_add_ps(acc0, acc1));
  for (; i < dim; ++i) sum += a[i] * b[i];
  return sum;
}

/// `tail_sum` plus `weight` times the squared L2 of a segment's scalar
/// tail, dims [i, dim). The fused multiply-adds are spelled out, so the
/// single-row and the four-row kernels round their tails alike whatever
/// the compiler would contract in each.
float AddWeightedTail(const float* a, const float* b, size_t i, size_t dim,
                      float weight, float tail_sum) {
  float seg_tail = 0.0f;
  for (; i < dim; ++i) {
    const float d = a[i] - b[i];
    seg_tail = std::fma(d, d, seg_tail);
  }
  return std::fma(weight, seg_tail, tail_sum);
}

/// Weighted multi-segment L2 in one pass: the weighted accumulator stays
/// in a vector register across segments (one fmadd per segment with the
/// broadcast weight) and is reduced horizontally once, plus once per
/// boundary check when bounded. Scalar tails of each segment accumulate
/// separately, weighted per segment.
template <bool kBounded>
float WL2SqAvx2Scan(const float* q, const float* o, const size_t* offsets,
                    const uint32_t* dims, const float* weights, size_t num_m,
                    float bound, size_t* segments) {
  __m256 acc = _mm256_setzero_ps();
  float tail_sum = 0.0f;
  size_t m = 0;
  while (m < num_m) {
    const float* a = q + offsets[m];
    const float* b = o + offsets[m];
    const size_t dim = dims[m];
    __m256 seg = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= dim; i += 8) {
      const __m256 d =
          _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
      seg = _mm256_fmadd_ps(d, d, seg);
    }
    acc = _mm256_fmadd_ps(_mm256_set1_ps(weights[m]), seg, acc);
    tail_sum = AddWeightedTail(a, b, i, dim, weights[m], tail_sum);
    ++m;
    if (kBounded && m < num_m) {
      const float running = HorizontalSum256(acc) + tail_sum;
      if (running > bound) {
        if (segments != nullptr) *segments = m;
        return running;
      }
    }
  }
  if (segments != nullptr) *segments = m;
  return HorizontalSum256(acc) + tail_sum;
}

float WL2SqAvx2(const float* q, const float* o, const size_t* offsets,
                const uint32_t* dims, const float* weights, size_t num_m,
                float bound, size_t* segments) {
  return bound == kNoBound
             ? WL2SqAvx2Scan<false>(q, o, offsets, dims, weights, num_m,
                                    bound, segments)
             : WL2SqAvx2Scan<true>(q, o, offsets, dims, weights, num_m,
                                   bound, segments);
}

/// WL2SqAvx2Scan<false> for four rows in one pass. Each row keeps its own
/// accumulators and goes through the single-row operations in their
/// order, so each result equals the single-row value bit for bit; the
/// query chunk is loaded once for the four rows.
void WL2SqAvx2Rows4(const float* q, const float* const rows[4],
                    const size_t* offsets, const uint32_t* dims,
                    const float* weights, size_t num_m, float* out) {
  __m256 acc[4];
  float tail_sum[4];
#pragma GCC unroll 4
  for (int r = 0; r < 4; ++r) {
    acc[r] = _mm256_setzero_ps();
    tail_sum[r] = 0.0f;
  }
  for (size_t m = 0; m < num_m; ++m) {
    const float* a = q + offsets[m];
    const size_t dim = dims[m];
    const float* b[4];
    __m256 seg[4];
#pragma GCC unroll 4
    for (int r = 0; r < 4; ++r) {
      b[r] = rows[r] + offsets[m];
      seg[r] = _mm256_setzero_ps();
    }
    size_t i = 0;
    for (; i + 8 <= dim; i += 8) {
      const __m256 qa = _mm256_loadu_ps(a + i);
#pragma GCC unroll 4
      for (int r = 0; r < 4; ++r) {
        const __m256 d = _mm256_sub_ps(qa, _mm256_loadu_ps(b[r] + i));
        seg[r] = _mm256_fmadd_ps(d, d, seg[r]);
      }
    }
    const __m256 w = _mm256_set1_ps(weights[m]);
#pragma GCC unroll 4
    for (int r = 0; r < 4; ++r) {
      acc[r] = _mm256_fmadd_ps(w, seg[r], acc[r]);
      tail_sum[r] = AddWeightedTail(a, b[r], i, dim, weights[m], tail_sum[r]);
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < 4; ++r) out[r] = HorizontalSum256(acc[r]) + tail_sum[r];
}

void WL2SqRowsAvx2(const float* q, const float* base, size_t stride,
                   const uint32_t* ids, size_t n, const size_t* offsets,
                   const uint32_t* dims, const float* weights, size_t num_m,
                   float* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float* const rows[4] = {
        RowAt(base, stride, ids, i), RowAt(base, stride, ids, i + 1),
        RowAt(base, stride, ids, i + 2), RowAt(base, stride, ids, i + 3)};
    WL2SqAvx2Rows4(q, rows, offsets, dims, weights, num_m, out + i);
  }
  for (; i < n; ++i) {
    out[i] = WL2SqAvx2Scan<false>(q, RowAt(base, stride, ids, i), offsets,
                                  dims, weights, num_m, kNoBound, nullptr);
  }
}

}  // namespace

const DistanceKernels* Avx2KernelsOrNull() {
  static const DistanceKernels kTable = {&L2SqAvx2, &DotAvx2, &WL2SqAvx2,
                                         &WL2SqRowsAvx2};
  return &kTable;
}

#else  // !MQA_SIMD_X86

const DistanceKernels* Avx2KernelsOrNull() { return nullptr; }

#endif  // MQA_SIMD_X86

}  // namespace simd_internal
}  // namespace mqa
