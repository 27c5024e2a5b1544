#include "vector/distance.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace mqa {
namespace {

TEST(DistanceTest, L2SqBasic) {
  const float a[] = {0, 0, 0};
  const float b[] = {1, 2, 2};
  EXPECT_FLOAT_EQ(L2Sq(a, b, 3), 9.0f);
  EXPECT_FLOAT_EQ(L2Sq(a, a, 3), 0.0f);
}

TEST(DistanceTest, L2SqHandlesNonMultipleOfFourDims) {
  // The kernel unrolls by 4; check the scalar tail for every residual length.
  Rng rng(1);
  for (size_t dim = 1; dim <= 9; ++dim) {
    std::vector<float> a(dim), b(dim);
    for (size_t i = 0; i < dim; ++i) {
      a[i] = static_cast<float>(rng.Gaussian());
      b[i] = static_cast<float>(rng.Gaussian());
    }
    float expected = 0;
    for (size_t i = 0; i < dim; ++i) {
      expected += (a[i] - b[i]) * (a[i] - b[i]);
    }
    EXPECT_NEAR(L2Sq(a.data(), b.data(), dim), expected, 1e-4);
  }
}

TEST(DistanceTest, DotBasic) {
  const float a[] = {1, 2, 3, 4, 5};
  const float b[] = {5, 4, 3, 2, 1};
  EXPECT_FLOAT_EQ(Dot(a, b, 5), 35.0f);
}

TEST(DistanceTest, NormBasic) {
  const float a[] = {3, 4};
  EXPECT_FLOAT_EQ(Norm(a, 2), 5.0f);
}

TEST(DistanceTest, CosineDistanceRange) {
  const float a[] = {1, 0};
  const float b[] = {0, 1};
  const float c[] = {-1, 0};
  EXPECT_NEAR(CosineDistance(a, b, 2), 1.0f, 1e-6);   // orthogonal
  EXPECT_NEAR(CosineDistance(a, a, 2), 0.0f, 1e-6);   // identical
  EXPECT_NEAR(CosineDistance(a, c, 2), 2.0f, 1e-6);   // opposite
}

TEST(DistanceTest, CosineDistanceZeroVectorIsNeutral) {
  const float a[] = {0, 0};
  const float b[] = {1, 1};
  EXPECT_FLOAT_EQ(CosineDistance(a, b, 2), 1.0f);
}

TEST(DistanceTest, ComputeDistanceDispatch) {
  const float a[] = {1, 0};
  const float b[] = {0, 1};
  EXPECT_FLOAT_EQ(ComputeDistance(Metric::kL2, a, b, 2), 2.0f);
  EXPECT_FLOAT_EQ(ComputeDistance(Metric::kInnerProduct, a, b, 2), 0.0f);
  EXPECT_FLOAT_EQ(ComputeDistance(Metric::kCosine, a, b, 2), 1.0f);
}

TEST(DistanceTest, InnerProductSmallerIsCloser) {
  const float q[] = {1, 1};
  const float near[] = {2, 2};
  const float far[] = {0.1f, 0.1f};
  EXPECT_LT(ComputeDistance(Metric::kInnerProduct, q, near, 2),
            ComputeDistance(Metric::kInnerProduct, q, far, 2));
}

TEST(DistanceTest, MetricStringRoundTrip) {
  EXPECT_EQ(MetricFromString("l2"), Metric::kL2);
  EXPECT_EQ(MetricFromString("IP"), Metric::kInnerProduct);
  EXPECT_EQ(MetricFromString("Cosine"), Metric::kCosine);
  EXPECT_EQ(MetricFromString("unknown"), Metric::kL2);
  for (Metric m :
       {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    EXPECT_EQ(MetricFromString(MetricToString(m)), m);
  }
}

TEST(DistanceTest, NormalizeVectorMakesUnitNorm) {
  Vector v = {3, 4};
  NormalizeVector(&v);
  EXPECT_NEAR(Norm(v.data(), 2), 1.0f, 1e-6);
  EXPECT_NEAR(v[0], 0.6f, 1e-6);
}

TEST(DistanceTest, NormalizeZeroVectorIsNoop) {
  Vector v = {0, 0, 0};
  NormalizeVector(&v);
  EXPECT_EQ(v, (Vector{0, 0, 0}));
}

}  // namespace
}  // namespace mqa
