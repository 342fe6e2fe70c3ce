#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mlcr::util {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1'000; ++i) {
    const double u = rng.uniform(-3.0, 5.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.5);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(3);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5'000; ++i) ++counts[rng.uniform_index(5)];
  for (int c : counts) EXPECT_GT(c, 800);  // ~1000 each
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2'000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(5);
  double sum = 0.0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(5);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) {
    const double z = rng.normal();
    sum += z;
    sq += z * z;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sq / kN, 1.0, 0.03);
}

TEST(Rng, PoissonMeanMatchesLambda) {
  Rng rng(17);
  for (const double lambda : {0.5, 4.0, 100.0}) {
    double sum = 0.0;
    constexpr int kN = 20'000;
    for (int i = 0; i < kN; ++i)
      sum += static_cast<double>(rng.poisson(lambda));
    EXPECT_NEAR(sum / kN, lambda, lambda * 0.05 + 0.02) << "lambda=" << lambda;
  }
}

TEST(Rng, PoissonZeroLambdaIsZero) {
  Rng rng(1);
  EXPECT_EQ(rng.poisson(0.0), 0U);
  EXPECT_EQ(rng.poisson(-1.0), 0U);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  Rng b(42);
  (void)b();  // advance past the split draw
  // The child must differ from the parent's continued stream.
  int equal = 0;
  for (int i = 0; i < 50; ++i)
    if (child() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Zipf, ProbabilitiesSumToOneAndDecrease) {
  const ZipfSampler zipf(100, 1.1);
  double sum = 0.0;
  double prev = 1.0;
  for (std::size_t k = 0; k < zipf.size(); ++k) {
    const double p = zipf.probability(k);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, SamplingMatchesHeadProbability) {
  const ZipfSampler zipf(50, 1.5);
  Rng rng(2);
  int rank0 = 0;
  constexpr int kN = 20'000;
  for (int i = 0; i < kN; ++i)
    if (zipf.sample(rng) == 0) ++rank0;
  EXPECT_NEAR(static_cast<double>(rank0) / kN, zipf.probability(0), 0.02);
}

TEST(Zipf, SingleElement) {
  const ZipfSampler zipf(1, 1.0);
  Rng rng(2);
  EXPECT_EQ(zipf.sample(rng), 0U);
  EXPECT_DOUBLE_EQ(zipf.probability(0), 1.0);
}

}  // namespace
}  // namespace mlcr::util
