#ifndef MQA_VECTOR_SIMD_KERNELS_H_
#define MQA_VECTOR_SIMD_KERNELS_H_

#include "vector/simd/simd.h"

namespace mqa {
namespace simd_internal {

/// Per-tier kernel tables. The scalar table always exists; the AVX tables
/// are null when their translation unit was compiled without x86 support
/// (the dispatcher then falls back tier by tier). Each AVX translation
/// unit is compiled with its own -m flags (see src/vector/CMakeLists.txt)
/// and contains nothing but kernels, so no vectorized code can leak into
/// paths that run on unverified CPUs.
const DistanceKernels& ScalarKernels();
const DistanceKernels* Avx2KernelsOrNull();
const DistanceKernels* Avx512KernelsOrNull();

// Row addressing shared by the tiers' wl2sq_rows. Internal linkage on
// purpose: each kernel translation unit compiles its own copy under its
// own -m flags, so no out-of-line copy built for one tier can be linked
// into another.
namespace {

/// Row i of a wl2sq_rows call: gathered through `ids`, or contiguous.
inline const float* RowAt(const float* base, size_t stride,
                          const uint32_t* ids, size_t i) {
  return base + (ids == nullptr ? i : ids[i]) * stride;
}

}  // namespace

}  // namespace simd_internal
}  // namespace mqa

#endif  // MQA_VECTOR_SIMD_KERNELS_H_
