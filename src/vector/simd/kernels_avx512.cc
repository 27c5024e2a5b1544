// AVX-512F kernels: 16-wide FMA with masked-load tails (no scalar tail
// loop, so remainder dims 1..15 stay in vector registers). Compiled with
// -mavx512f on x86_64 builds only and reached solely through the dispatch
// table after a CPUID check; this is one of the two translation units
// allowed to include <immintrin.h> (lint rule `raw-intrinsics`).

#include "vector/simd/kernels.h"

#if defined(MQA_SIMD_X86)
#include <immintrin.h>
#endif

namespace mqa {
namespace simd_internal {

#if defined(MQA_SIMD_X86)

namespace {

float L2SqAvx512(const float* a, const float* b, size_t dim) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    const __m512 d0 =
        _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    const __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 16),
                                    _mm512_loadu_ps(b + i + 16));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
    acc1 = _mm512_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 16 <= dim; i += 16) {
    const __m512 d =
        _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    acc0 = _mm512_fmadd_ps(d, d, acc0);
  }
  if (i < dim) {
    const __mmask16 tail = static_cast<__mmask16>((1u << (dim - i)) - 1u);
    const __m512 d = _mm512_sub_ps(_mm512_maskz_loadu_ps(tail, a + i),
                                   _mm512_maskz_loadu_ps(tail, b + i));
    acc1 = _mm512_fmadd_ps(d, d, acc1);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

float DotAvx512(const float* a, const float* b, size_t dim) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                           _mm512_loadu_ps(b + i + 16), acc1);
  }
  for (; i + 16 <= dim; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
  }
  if (i < dim) {
    const __mmask16 tail = static_cast<__mmask16>((1u << (dim - i)) - 1u);
    acc1 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(tail, a + i),
                           _mm512_maskz_loadu_ps(tail, b + i), acc1);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

/// Weighted multi-segment L2 in one pass: per-segment vector sums are
/// folded into a single weighted accumulator register (one fmadd with the
/// broadcast weight per segment) and reduced horizontally once, plus once
/// per boundary check when bounded. Masked tails keep remainder dims 1..15
/// in vector registers.
template <bool kBounded>
float WL2SqAvx512Scan(const float* q, const float* o, const size_t* offsets,
                      const uint32_t* dims, const float* weights,
                      size_t num_m, float bound, size_t* segments) {
  __m512 acc = _mm512_setzero_ps();
  size_t m = 0;
  while (m < num_m) {
    const float* a = q + offsets[m];
    const float* b = o + offsets[m];
    const size_t dim = dims[m];
    __m512 seg = _mm512_setzero_ps();
    size_t i = 0;
    for (; i + 16 <= dim; i += 16) {
      const __m512 d =
          _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
      seg = _mm512_fmadd_ps(d, d, seg);
    }
    if (i < dim) {
      const __mmask16 tail = static_cast<__mmask16>((1u << (dim - i)) - 1u);
      const __m512 d = _mm512_sub_ps(_mm512_maskz_loadu_ps(tail, a + i),
                                     _mm512_maskz_loadu_ps(tail, b + i));
      seg = _mm512_fmadd_ps(d, d, seg);
    }
    acc = _mm512_fmadd_ps(_mm512_set1_ps(weights[m]), seg, acc);
    ++m;
    if (kBounded && m < num_m) {
      const float running = _mm512_reduce_add_ps(acc);
      if (running > bound) {
        if (segments != nullptr) *segments = m;
        return running;
      }
    }
  }
  if (segments != nullptr) *segments = m;
  return _mm512_reduce_add_ps(acc);
}

float WL2SqAvx512(const float* q, const float* o, const size_t* offsets,
                  const uint32_t* dims, const float* weights, size_t num_m,
                  float bound, size_t* segments) {
  return bound == kNoBound
             ? WL2SqAvx512Scan<false>(q, o, offsets, dims, weights, num_m,
                                      bound, segments)
             : WL2SqAvx512Scan<true>(q, o, offsets, dims, weights, num_m,
                                     bound, segments);
}

/// WL2SqAvx512Scan<false> for four rows in one pass. Each row keeps its
/// own accumulators and goes through the single-row operations in their
/// order, so each result equals the single-row value bit for bit; the
/// query chunk (and its masked tail) is loaded once for the four rows.
void WL2SqAvx512Rows4(const float* q, const float* const rows[4],
                      const size_t* offsets, const uint32_t* dims,
                      const float* weights, size_t num_m, float* out) {
  __m512 acc[4];
#pragma GCC unroll 4
  for (int r = 0; r < 4; ++r) acc[r] = _mm512_setzero_ps();
  for (size_t m = 0; m < num_m; ++m) {
    const float* a = q + offsets[m];
    const size_t dim = dims[m];
    const float* b[4];
    __m512 seg[4];
#pragma GCC unroll 4
    for (int r = 0; r < 4; ++r) {
      b[r] = rows[r] + offsets[m];
      seg[r] = _mm512_setzero_ps();
    }
    size_t i = 0;
    for (; i + 16 <= dim; i += 16) {
      const __m512 qa = _mm512_loadu_ps(a + i);
#pragma GCC unroll 4
      for (int r = 0; r < 4; ++r) {
        const __m512 d = _mm512_sub_ps(qa, _mm512_loadu_ps(b[r] + i));
        seg[r] = _mm512_fmadd_ps(d, d, seg[r]);
      }
    }
    if (i < dim) {
      const __mmask16 tail = static_cast<__mmask16>((1u << (dim - i)) - 1u);
      const __m512 qa = _mm512_maskz_loadu_ps(tail, a + i);
#pragma GCC unroll 4
      for (int r = 0; r < 4; ++r) {
        const __m512 d =
            _mm512_sub_ps(qa, _mm512_maskz_loadu_ps(tail, b[r] + i));
        seg[r] = _mm512_fmadd_ps(d, d, seg[r]);
      }
    }
    const __m512 w = _mm512_set1_ps(weights[m]);
#pragma GCC unroll 4
    for (int r = 0; r < 4; ++r) acc[r] = _mm512_fmadd_ps(w, seg[r], acc[r]);
  }
#pragma GCC unroll 4
  for (int r = 0; r < 4; ++r) out[r] = _mm512_reduce_add_ps(acc[r]);
}

void WL2SqRowsAvx512(const float* q, const float* base, size_t stride,
                     const uint32_t* ids, size_t n, const size_t* offsets,
                     const uint32_t* dims, const float* weights,
                     size_t num_m, float* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float* const rows[4] = {
        RowAt(base, stride, ids, i), RowAt(base, stride, ids, i + 1),
        RowAt(base, stride, ids, i + 2), RowAt(base, stride, ids, i + 3)};
    WL2SqAvx512Rows4(q, rows, offsets, dims, weights, num_m, out + i);
  }
  for (; i < n; ++i) {
    out[i] = WL2SqAvx512Scan<false>(q, RowAt(base, stride, ids, i), offsets,
                                    dims, weights, num_m, kNoBound, nullptr);
  }
}

}  // namespace

const DistanceKernels* Avx512KernelsOrNull() {
  static const DistanceKernels kTable = {&L2SqAvx512, &DotAvx512,
                                         &WL2SqAvx512, &WL2SqRowsAvx512};
  return &kTable;
}

#else  // !MQA_SIMD_X86

const DistanceKernels* Avx512KernelsOrNull() { return nullptr; }

#endif  // MQA_SIMD_X86

}  // namespace simd_internal
}  // namespace mqa
