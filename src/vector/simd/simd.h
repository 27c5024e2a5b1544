#ifndef MQA_VECTOR_SIMD_SIMD_H_
#define MQA_VECTOR_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "common/result.h"

namespace mqa {

/// Instruction-set tiers of the distance kernels. Exactly one tier is
/// *active* per process; it is resolved once, at first kernel use, from
/// the `MQA_SIMD_LEVEL` environment variable (values: "scalar", "avx2",
/// "avx512", or "auto") clamped to what CPUID reports, and can be
/// overridden programmatically (config `simd.level`, tests) via
/// SetSimdLevel. Every tier computes the same mathematical function; only
/// the floating-point summation order differs (tiers agree to a few ulps,
/// gated by the kernel-parity fuzz suite).
enum class SimdLevel {
  kScalar = 0,  ///< portable 4-accumulator loops (always available)
  kAvx2 = 1,    ///< 8-wide FMA (requires AVX2 + FMA)
  kAvx512 = 2,  ///< 16-wide FMA with masked tails (requires AVX-512F)
};

const char* SimdLevelName(SimdLevel level);

/// Parses "scalar" / "avx2" / "avx512" (case-insensitive).
Result<SimdLevel> SimdLevelFromString(const std::string& name);

/// Highest tier this CPU (and OS) can execute. Probed once via CPUID;
/// always at least kScalar.
SimdLevel DetectedSimdLevel();
bool CpuSupports(SimdLevel level);

/// Pure resolution rule for the startup dispatch decision, unit-testable
/// without touching process state: `requested` is the raw override string
/// ("" or "auto" = use `detected`); a requested tier the CPU lacks, or an
/// unparseable name, clamps to `detected` and explains itself in `*note`
/// (untouched when the request is honored as-is). `note` may be null.
SimdLevel ResolveSimdLevel(const std::string& requested, SimdLevel detected,
                           std::string* note);

/// The tier the dispatched kernels currently execute at.
SimdLevel ActiveSimdLevel();

/// Overrides the active tier (config/tests). Fails with InvalidArgument
/// when the CPU cannot execute `level`. Not meant to race with in-flight
/// searches: callers switch tiers at startup or between test cases.
Status SetSimdLevel(SimdLevel level);

/// The `bound` for which DistanceKernels::wl2sq computes the whole sum; the
/// SIMD tiers then skip their boundary reductions altogether.
inline constexpr float kNoBound = std::numeric_limits<float>::infinity();

/// The dispatch table: one function pointer per primitive kernel. Selected
/// once per process; every hot-path distance goes through exactly one
/// indirect call (no per-call CPUID, no per-element branching).
struct DistanceKernels {
  float (*l2sq)(const float* a, const float* b, size_t dim);
  float (*dot)(const float* a, const float* b, size_t dim);
  /// Fused weighted multi-segment L2: sum_m weights[m] *
  /// L2Sq(q+offsets[m], o+offsets[m], dims[m]), segments summed in the
  /// order given, in one pass (the SIMD tiers keep the weighted
  /// accumulator in vector registers across segments). It returns the
  /// running sum at the first boundary between segments where that sum
  /// exceeds `bound` (incremental scanning); with kNoBound it never
  /// does. A check reads the accumulator without changing it, so a call
  /// that does not return early returns the kNoBound call's value bit for
  /// bit, and since running sums only grow, an early return means the
  /// full sum exceeds `bound` too. `*segments` (when non-null) receives
  /// the number of segments summed. The only weighted multi-vector
  /// distance: WeightedMultiDistance::{Exact,Pruned}.
  float (*wl2sq)(const float* q, const float* o, const size_t* offsets,
                 const uint32_t* dims, const float* weights, size_t num_m,
                 float bound, size_t* segments);
  /// wl2sq at kNoBound from one `q` to `n` rows: out[i] is bit for bit
  /// wl2sq(q, row_i, ..., kNoBound, nullptr), where row_i is
  /// base + ids[i] * stride (a gather), or base + i * stride when `ids` is
  /// null (a contiguous scan). The SIMD tiers score four rows per pass,
  /// each with the single-row kernel's operations in its order, and load
  /// each query chunk once for the four; the four independent chains keep
  /// four rows' loads in flight, which software prefetching did not
  /// improve on. The only batched weighted distance:
  /// WeightedMultiDistance::ExactBatch.
  void (*wl2sq_rows)(const float* q, const float* base, size_t stride,
                     const uint32_t* ids, size_t n, const size_t* offsets,
                     const uint32_t* dims, const float* weights,
                     size_t num_m, float* out);
};

/// Table for an explicit tier; tiers compiled out of this build (non-x86
/// hosts) fall back to the next lower available tier. Used by the parity
/// tests to compare tiers side by side regardless of the active one.
const DistanceKernels& KernelsFor(SimdLevel level);

/// Table of the active tier (resolves the tier on first use).
const DistanceKernels& ActiveKernels();

/// Portable read-prefetch hint for upcoming rows in adjacency/rerank
/// scans. A plain hint — safe on any address, compiles to nothing where
/// unsupported — so callers outside src/vector/simd/ never need raw
/// intrinsics (see the `raw-intrinsics` lint rule).
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

}  // namespace mqa

#endif  // MQA_VECTOR_SIMD_SIMD_H_
