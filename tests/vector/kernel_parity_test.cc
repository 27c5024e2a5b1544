// Fuzz gate for the runtime-dispatched SIMD kernels: every compiled tier
// must agree with the scalar reference within a ulp-scaled tolerance on
// adversarial inputs (remainder tails 1..15, denormals, mixed magnitudes),
// the bounded (incremental-scanning) distance must abandon only when the
// true distance exceeds its bound, and within each tier the batched rows
// entry and DistancesBetween must equal the single-row calls bit for bit.
// Seeded via MQA_CHAOS_SEED so the nightly soak rotates inputs;
// MQA_CHAOS_ITERS multiplies the round count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "vector/multi_distance.h"
#include "vector/simd/simd.h"
#include "vector/vector_store.h"

namespace mqa {
namespace {

class KernelParityTest : public ::testing::Test {
 protected:
  static uint64_t ChaosSeed() {
    const char* s = std::getenv("MQA_CHAOS_SEED");
    return s != nullptr ? std::strtoull(s, nullptr, 10) : 42;
  }
  static int ChaosIters(int base) {
    const char* s = std::getenv("MQA_CHAOS_ITERS");
    const int mult = s != nullptr ? std::atoi(s) : 1;
    return base * std::max(1, mult);
  }

  /// Random vector mixing regular values, denormals, exact zeros, and
  /// large magnitudes — the inputs where lane-order FP summation differs
  /// most from the scalar loop.
  static std::vector<float> AdversarialVector(size_t dim, Rng* rng) {
    std::vector<float> v(dim);
    for (auto& x : v) {
      switch (rng->UniformInt(0, 8 - 1)) {
        case 0:
          x = 0.0f;
          break;
        case 1:  // denormal range
          x = static_cast<float>(rng->Gaussian()) * 1e-40f;
          break;
        case 2:  // large magnitude
          x = static_cast<float>(rng->Gaussian()) * 1e4f;
          break;
        default:
          x = static_cast<float>(rng->Gaussian());
      }
    }
    return v;
  }

  /// Double-precision reference; used to scale the tolerance so it tracks
  /// the magnitude of the accumulated terms (a ulp-style bound) instead of
  /// a fixed epsilon that would be meaningless across 1e-40..1e4 inputs.
  static double RefL2Sq(const float* a, const float* b, size_t dim,
                        double* mag) {
    double sum = 0, m = 0;
    for (size_t i = 0; i < dim; ++i) {
      const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
      sum += d * d;
      m += std::abs(d * d);
    }
    *mag = m;
    return sum;
  }
  static double RefDot(const float* a, const float* b, size_t dim,
                       double* mag) {
    double sum = 0, m = 0;
    for (size_t i = 0; i < dim; ++i) {
      const double p = static_cast<double>(a[i]) * static_cast<double>(b[i]);
      sum += p;
      m += std::abs(p);
    }
    *mag = m;
    return sum;
  }

  /// Tolerance scaled by the accumulated magnitude: float has ~2^-23
  /// relative precision per operation; dim accumulations with different
  /// association orders can diverge by O(dim * eps * magnitude).
  static double Tolerance(size_t dim, double mag) {
    const double eps = 1.1920929e-7;  // 2^-23
    return (static_cast<double>(dim) + 8.0) * eps * mag + 1e-30;
  }
};

TEST_F(KernelParityTest, AllTiersMatchScalarOnFuzzedInputs) {
  Rng rng(ChaosSeed());
  const int rounds = ChaosIters(200);
  const DistanceKernels& scalar = KernelsFor(SimdLevel::kScalar);
  int checked_levels = 0;
  for (int r = 0; r < rounds; ++r) {
    // Dims chosen to exercise every remainder-tail path: 1..15 plus the
    // wide main-loop strides.
    size_t dim;
    if (r % 3 == 0) {
      dim = 1 + static_cast<size_t>(rng.UniformInt(0, 15 - 1));
    } else {
      dim = 16 + static_cast<size_t>(rng.UniformInt(0, 512 - 1));
    }
    const auto a = AdversarialVector(dim, &rng);
    const auto b = AdversarialVector(dim, &rng);
    double mag_l2 = 0, mag_dot = 0;
    const double ref_l2 = RefL2Sq(a.data(), b.data(), dim, &mag_l2);
    const double ref_dot = RefDot(a.data(), b.data(), dim, &mag_dot);

    const float s_l2 = scalar.l2sq(a.data(), b.data(), dim);
    const float s_dot = scalar.dot(a.data(), b.data(), dim);
    EXPECT_NEAR(s_l2, ref_l2, Tolerance(dim, mag_l2)) << "dim=" << dim;
    EXPECT_NEAR(s_dot, ref_dot, Tolerance(dim, mag_dot)) << "dim=" << dim;

    for (SimdLevel level : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
      if (!CpuSupports(level)) continue;
      const DistanceKernels& k = KernelsFor(level);
      if (&k == &scalar) continue;  // tier compiled out
      if (r == 0) ++checked_levels;
      const float v_l2 = k.l2sq(a.data(), b.data(), dim);
      const float v_dot = k.dot(a.data(), b.data(), dim);
      EXPECT_NEAR(v_l2, ref_l2, Tolerance(dim, mag_l2))
          << "level=" << SimdLevelName(level) << " dim=" << dim;
      EXPECT_NEAR(v_dot, ref_dot, Tolerance(dim, mag_dot))
          << "level=" << SimdLevelName(level) << " dim=" << dim;
      // SIMD vs scalar directly: both are float sums of the same terms,
      // so they must sit inside the same magnitude-scaled band.
      EXPECT_NEAR(v_l2, s_l2, Tolerance(dim, mag_l2))
          << "level=" << SimdLevelName(level) << " dim=" << dim;
    }
  }
  if (checked_levels == 0) {
    std::fprintf(stderr,
                 "kernel_parity: no SIMD tier supported on this host; "
                 "scalar-vs-double reference only\n");
  }
}

TEST_F(KernelParityTest, WeightedMultiDistanceMatchesAcrossTiers) {
  Rng rng(ChaosSeed() + 1);
  const int rounds = ChaosIters(50);
  const SimdLevel saved = ActiveSimdLevel();
  for (int r = 0; r < rounds; ++r) {
    VectorSchema schema;
    std::vector<float> weights;
    const size_t num_m = 1 + static_cast<size_t>(rng.UniformInt(0, 4 - 1));
    for (size_t m = 0; m < num_m; ++m) {
      schema.dims.push_back(1 + static_cast<size_t>(rng.UniformInt(0, 96 - 1)));
      weights.push_back(static_cast<float>(rng.UniformDouble(0.1, 4.0)));
    }
    auto dist = WeightedMultiDistance::Create(schema, weights);
    const auto a = AdversarialVector(schema.TotalDim(), &rng);
    const auto b = AdversarialVector(schema.TotalDim(), &rng);

    // Double-precision weighted reference for the tolerance scale.
    double ref = 0, mag = 0;
    size_t off = 0;
    for (size_t m = 0; m < num_m; ++m) {
      double part = 0;
      for (size_t i = 0; i < schema.dims[m]; ++i) {
        const double d = static_cast<double>(a[off + i]) -
                         static_cast<double>(b[off + i]);
        part += d * d;
      }
      ref += weights[m] * part;
      mag += weights[m] * part;
      off += schema.dims[m];
    }

    const double tol = Tolerance(schema.TotalDim(), mag);
    // Bounds below, near and above the reference. Pruned may return any
    // value above its bound once the true distance exceeds it, and must
    // scan every dimension and return the distance when it does not.
    const double bounds[] = {0.0,
                             ref * rng.UniformDouble(0.0, 0.9),
                             ref - 2.0 * tol,
                             ref,
                             ref + 2.0 * tol,
                             ref * rng.UniformDouble(1.1, 4.0),
                             std::numeric_limits<double>::infinity()};

    std::vector<float> got;
    for (SimdLevel level :
         {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
      if (!CpuSupports(level)) continue;
      ASSERT_TRUE(SetSimdLevel(level).ok());
      const float exact = dist->Exact(a.data(), b.data());
      got.push_back(exact);
      for (double requested : bounds) {
        const float bound = static_cast<float>(requested);
        SCOPED_TRACE(::testing::Message()
                     << "round=" << r << " level=" << SimdLevelName(level)
                     << " bound=" << bound << " ref=" << ref);
        DistanceTally stats;
        const float v = dist->Pruned(a.data(), b.data(), bound, &stats);
        // One kernel: a call that did not abandon is this tier's Exact,
        // bit for bit.
        if (stats.pruned_computations == 0) {
          EXPECT_EQ(v, exact);
        }
        const double margin = ref - static_cast<double>(bound);
        if (margin > tol) {
          EXPECT_GT(v, bound);
        } else if (margin < -tol) {
          EXPECT_EQ(stats.pruned_computations, 0u);
          EXPECT_EQ(stats.dims_scanned, schema.TotalDim());
          EXPECT_NEAR(v, ref, tol);
        } else {
          EXPECT_TRUE(v > bound || std::abs(v - ref) <= tol) << "got=" << v;
        }
      }
    }
    ASSERT_TRUE(SetSimdLevel(saved).ok());
    for (float v : got) {
      EXPECT_NEAR(v, ref, tol) << "round=" << r;
    }
  }
}

TEST_F(KernelParityTest, BatchIsBitwiseIdenticalToPerRow) {
  Rng rng(ChaosSeed() + 2);
  const int rounds = ChaosIters(10);
  for (int r = 0; r < rounds; ++r) {
    VectorSchema schema;
    schema.dims = {1 + static_cast<uint32_t>(rng.UniformInt(0, 39)),
                   1 + static_cast<uint32_t>(rng.UniformInt(0, 39))};
    auto wd = WeightedMultiDistance::Create(
        schema, {static_cast<float>(rng.UniformDouble(0.1, 2.0)),
                 static_cast<float>(rng.UniformDouble(0.1, 2.0))});
    VectorStore store(schema);
    const uint32_t n = 64;
    for (uint32_t i = 0; i < n; ++i) {
      (void)store.Add(AdversarialVector(schema.TotalDim(), &rng));
    }
    const auto q = AdversarialVector(schema.TotalDim(), &rng);

    std::vector<float> batch(n);
    wd->ExactBatch(q.data(), store.data(0), store.row_stride(),
                   /*ids=*/nullptr, n, batch.data());
    for (uint32_t i = 0; i < n; ++i) {
      EXPECT_EQ(batch[i], wd->Exact(q.data(), store.data(i)))
          << "row " << i << " must be bitwise identical";
    }
  }
}

uint32_t Bits(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST_F(KernelParityTest, GatheredRowsEqualTheSingleRowKernelAtEveryTier) {
  // Every segment count 1-5, every first-segment dim 1-70 (the later
  // segments' dims rotate through the same range, so every vector tail
  // and scalar tail length occurs), and every row count 0-9 (no, one or
  // two 4-row blocks, and each leftover count), gathered and contiguous.
  Rng rng(ChaosSeed() + 3);
  constexpr size_t kTableRows = 12;
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (!CpuSupports(level)) continue;
    const DistanceKernels& kernels = KernelsFor(level);
    for (size_t num_m = 1; num_m <= 5; ++num_m) {
      for (uint32_t dim = 1; dim <= 70; ++dim) {
        std::vector<uint32_t> seg_dims(num_m);
        std::vector<size_t> seg_offsets(num_m);
        size_t total = 0;
        for (size_t m = 0; m < num_m; ++m) {
          seg_dims[m] = (dim - 1 + 13 * static_cast<uint32_t>(m)) % 70 + 1;
          seg_offsets[m] = total;
          total += seg_dims[m];
        }
        // The kernel scans segments in the caller's order, which is not
        // the layout order (heaviest weight first).
        std::vector<size_t> offsets(num_m);
        std::vector<uint32_t> dims(num_m);
        std::vector<float> weights(num_m);
        for (size_t m = 0; m < num_m; ++m) {
          const size_t from = (m + dim) % num_m;
          offsets[m] = seg_offsets[from];
          dims[m] = seg_dims[from];
          weights[m] = static_cast<float>(rng.UniformDouble(0.1, 4.0));
        }
        const size_t stride = (total + 15) / 16 * 16;
        std::vector<float> table(kTableRows * stride, 0.0f);
        for (size_t r = 0; r < kTableRows; ++r) {
          const auto row = AdversarialVector(total, &rng);
          std::copy(row.begin(), row.end(), table.begin() + r * stride);
        }
        const auto q = AdversarialVector(total, &rng);
        auto single = [&](size_t row) {
          return kernels.wl2sq(q.data(), table.data() + row * stride,
                               offsets.data(), dims.data(), weights.data(),
                               num_m, kNoBound, nullptr);
        };
        for (size_t n = 0; n <= 9; ++n) {
          std::vector<uint32_t> ids(n);
          for (uint32_t& id : ids) {
            id = static_cast<uint32_t>(rng.UniformInt(0, kTableRows - 1));
          }
          std::vector<float> gathered(n + 1, -1.0f);
          std::vector<float> contiguous(n + 1, -1.0f);
          kernels.wl2sq_rows(q.data(), table.data(), stride, ids.data(), n,
                             offsets.data(), dims.data(), weights.data(),
                             num_m, gathered.data());
          kernels.wl2sq_rows(q.data(), table.data(), stride, nullptr, n,
                             offsets.data(), dims.data(), weights.data(),
                             num_m, contiguous.data());
          for (size_t i = 0; i < n; ++i) {
            SCOPED_TRACE(::testing::Message()
                         << SimdLevelName(level) << " segments=" << num_m
                         << " dim=" << dim << " n=" << n << " row=" << i);
            EXPECT_EQ(Bits(gathered[i]), Bits(single(ids[i])));
            EXPECT_EQ(Bits(contiguous[i]), Bits(single(i)));
          }
          // Nothing is written past the n rows.
          EXPECT_EQ(gathered[n], -1.0f);
          EXPECT_EQ(contiguous[n], -1.0f);
        }
      }
    }
  }
}

TEST_F(KernelParityTest, DistancesBetweenEqualsThePerPairLoop) {
  Rng rng(ChaosSeed() + 4);
  VectorSchema schema;
  schema.dims = {19, 32, 7, 45};
  VectorStore store(schema);
  for (int i = 0; i < 40; ++i) {
    (void)store.Add(AdversarialVector(schema.TotalDim(), &rng));
  }
  auto weighted =
      WeightedMultiDistance::Create(schema, {0.5f, 2.0f, 0.0f, 1.25f});
  ASSERT_TRUE(weighted.ok());
  const MultiVectorDistanceComputer multi(&store, *std::move(weighted));
  const FlatDistanceComputer l2(&store, Metric::kL2);
  const FlatDistanceComputer ip(&store, Metric::kInnerProduct);
  const FlatDistanceComputer cosine(&store, Metric::kCosine);
  const SimdLevel saved = ActiveSimdLevel();
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (!CpuSupports(level)) continue;
    ASSERT_TRUE(SetSimdLevel(level).ok());
    for (const DistanceComputer* dist :
         {static_cast<const DistanceComputer*>(&multi),
          static_cast<const DistanceComputer*>(&l2),
          static_cast<const DistanceComputer*>(&ip),
          static_cast<const DistanceComputer*>(&cosine)}) {
      for (size_t n : {0, 1, 3, 4, 5, 8, 13, 40}) {
        std::vector<uint32_t> ids(n);
        for (uint32_t& id : ids) {
          id = static_cast<uint32_t>(rng.UniformInt(0, store.size() - 1));
        }
        const uint32_t from =
            static_cast<uint32_t>(rng.UniformInt(0, store.size() - 1));
        std::vector<float> got(n);
        dist->DistancesBetween(from, ids, got.data());
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(Bits(got[i]), Bits(dist->DistanceBetween(from, ids[i])))
              << SimdLevelName(level) << " n=" << n << " i=" << i;
        }
      }
    }
  }
  ASSERT_TRUE(SetSimdLevel(saved).ok());
}

}  // namespace
}  // namespace mqa
