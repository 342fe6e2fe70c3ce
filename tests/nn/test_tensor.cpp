#include "nn/tensor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/check.hpp"

namespace mlcr::nn {
namespace {

TEST(Tensor, ConstructionAndIndexing) {
  Tensor t(2, 3, 1.5F);
  EXPECT_EQ(t.rows(), 2U);
  EXPECT_EQ(t.cols(), 3U);
  EXPECT_EQ(t.size(), 6U);
  EXPECT_FLOAT_EQ(t(1, 2), 1.5F);
  t(0, 1) = -2.0F;
  EXPECT_FLOAT_EQ(t.at(0, 1), -2.0F);
  EXPECT_THROW((void)t.at(2, 0), util::CheckError);
  EXPECT_THROW((void)t.at(0, 3), util::CheckError);
}

TEST(Tensor, InitializerList) {
  const Tensor t = {{1.0F, 2.0F}, {3.0F, 4.0F}};
  EXPECT_EQ(t.rows(), 2U);
  EXPECT_FLOAT_EQ(t(1, 0), 3.0F);
  EXPECT_THROW((Tensor{{1.0F}, {2.0F, 3.0F}}), util::CheckError);
}

TEST(Tensor, ElementwiseOps) {
  Tensor a = {{1.0F, 2.0F}};
  const Tensor b = {{10.0F, 20.0F}};
  a.add_(b);
  EXPECT_FLOAT_EQ(a(0, 0), 11.0F);
  a.axpy_(0.5F, b);
  EXPECT_FLOAT_EQ(a(0, 1), 32.0F);
  a.scale_(2.0F);
  EXPECT_FLOAT_EQ(a(0, 0), 32.0F);
  a.fill(0.0F);
  EXPECT_FLOAT_EQ(a.sum(), 0.0F);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a(2, 2);
  const Tensor b(2, 3);
  EXPECT_THROW(a.add_(b), util::CheckError);
}

TEST(Tensor, RowBroadcast) {
  Tensor a = {{1.0F, 2.0F}, {3.0F, 4.0F}};
  a.add_row_broadcast_(Tensor{{10.0F, 20.0F}});
  EXPECT_FLOAT_EQ(a(0, 0), 11.0F);
  EXPECT_FLOAT_EQ(a(1, 1), 24.0F);
  EXPECT_THROW(a.add_row_broadcast_(Tensor{{1.0F}}), util::CheckError);
}

TEST(Tensor, Transpose) {
  const Tensor a = {{1.0F, 2.0F, 3.0F}, {4.0F, 5.0F, 6.0F}};
  const Tensor t = a.transposed();
  EXPECT_EQ(t.rows(), 3U);
  EXPECT_EQ(t.cols(), 2U);
  EXPECT_FLOAT_EQ(t(2, 1), 6.0F);
}

TEST(Tensor, Reductions) {
  const Tensor a = {{-3.0F, 2.0F}};
  EXPECT_FLOAT_EQ(a.sum(), -1.0F);
  EXPECT_FLOAT_EQ(a.max_abs(), 3.0F);
  EXPECT_FLOAT_EQ(a.squared_norm(), 13.0F);
  EXPECT_FLOAT_EQ(Tensor().max_abs(), 0.0F);
}

TEST(Matmul, KnownProduct) {
  const Tensor a = {{1.0F, 2.0F}, {3.0F, 4.0F}};
  const Tensor b = {{5.0F, 6.0F}, {7.0F, 8.0F}};
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 19.0F);
  EXPECT_FLOAT_EQ(c(0, 1), 22.0F);
  EXPECT_FLOAT_EQ(c(1, 0), 43.0F);
  EXPECT_FLOAT_EQ(c(1, 1), 50.0F);
}

TEST(Matmul, ShapeMismatchThrows) {
  EXPECT_THROW((void)matmul(Tensor(2, 3), Tensor(2, 3)), util::CheckError);
}

TEST(Matmul, VariantsAgreeWithExplicitTranspose) {
  util::Rng rng(3);
  const Tensor a = Tensor::he_uniform(4, 6, rng);
  const Tensor b = Tensor::he_uniform(4, 5, rng);
  const Tensor c = Tensor::he_uniform(5, 6, rng);

  const Tensor tn = matmul_tn(a, b);           // a^T b: (6x5)
  const Tensor tn_ref = matmul(a.transposed(), b);
  ASSERT_TRUE(tn.same_shape(tn_ref));
  for (std::size_t i = 0; i < tn.size(); ++i)
    EXPECT_NEAR(tn.data()[i], tn_ref.data()[i], 1e-5F);

  const Tensor nt = matmul_nt(a, c);           // a c^T: (4x5)
  const Tensor nt_ref = matmul(a, c.transposed());
  ASSERT_TRUE(nt.same_shape(nt_ref));
  for (std::size_t i = 0; i < nt.size(); ++i)
    EXPECT_NEAR(nt.data()[i], nt_ref.data()[i], 1e-5F);
}

/// The plain i-k-j product, the op order gemm must keep.
Tensor ikj_product(const Tensor& a, const Tensor& b) {
  Tensor out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const float aik = a(i, k);
      if (aik == 0.0F) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  return out;
}

/// he_uniform with about a third of the entries exactly zero.
Tensor sparse_uniform(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor t = Tensor::he_uniform(std::max<std::size_t>(rows, 1), cols, rng);
  Tensor out(rows, cols);
  for (std::size_t i = 0; i < out.size(); ++i)
    out.data()[i] = rng.uniform() < 0.35 ? 0.0F : t.data()[i];
  return out;
}

void expect_same_bits(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(std::memcmp(a.data() + i, b.data() + i, sizeof(float)), 0)
        << "element " << i << ": " << a.data()[i] << " vs " << b.data()[i];
}

// Widths cover every panel (48, 16, 8, 1) and their tails; k = 300 runs the
// kernel's multi-pass path (more terms than one pass lists).
TEST(Matmul, MatchesTheIkjLoopBitForBit) {
  util::Rng rng(5);
  const std::size_t shapes[][3] = {{3, 0, 5},   {2, 7, 1},   {5, 16, 48},
                                   {4, 20, 97}, {3, 300, 25}, {26, 26, 24},
                                   {6, 48, 96}, {1, 129, 63}};
  for (const auto& s : shapes) {
    SCOPED_TRACE(::testing::Message()
                 << s[0] << "x" << s[1] << " . " << s[1] << "x" << s[2]);
    const Tensor a = sparse_uniform(s[0], s[1], rng);
    const Tensor b = sparse_uniform(s[1], s[2], rng);
    expect_same_bits(matmul(a, b), ikj_product(a, b));
  }
}

// A zero a(i, p) against an inf or NaN b(p, j) is where the zero-skip shows:
// skipped, the row stays finite; added, it turns NaN.
TEST(Matmul, ZeroSkipHoldsAgainstNonFiniteEntries) {
  util::Rng rng(7);
  Tensor a = sparse_uniform(6, 20, rng);
  Tensor b = sparse_uniform(20, 24, rng);
  a(0, 3) = 0.0F;
  a(1, 3) = 0.5F;
  b(3, 5) = std::numeric_limits<float>::infinity();
  b(4, 17) = std::numeric_limits<float>::quiet_NaN();
  a(2, 4) = 0.0F;
  const Tensor out = matmul(a, b);
  EXPECT_TRUE(std::isfinite(out(0, 5)));
  EXPECT_TRUE(std::isinf(out(1, 5)));
  EXPECT_TRUE(std::isfinite(out(2, 17)));
  expect_same_bits(out, ikj_product(a, b));
}

// Without the zero skip, gemm against a transposed operand is matmul_nt's
// dot product, term for term.
TEST(Matmul, GemmWithoutSkipMatchesMatmulNt) {
  util::Rng rng(6);
  const Tensor a = sparse_uniform(26, 24, rng);
  const Tensor c = sparse_uniform(26, 24, rng);
  const Tensor c_t = c.transposed();
  Tensor out(26, 26);
  gemm(a.data(), a.cols(), c_t.data(), c_t.cols(), nullptr, out.data(),
       out.cols(), a.rows(), a.cols(), c_t.cols(), /*skip_zero_a=*/false);
  expect_same_bits(out, matmul_nt(a, c));
}

TEST(Softmax, RowsSumToOneAndOrderPreserved) {
  const Tensor logits = {{1.0F, 2.0F, 3.0F}, {-1.0F, -1.0F, -1.0F}};
  const Tensor y = softmax_rows(logits);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    float sum = 0.0F;
    for (std::size_t c = 0; c < y.cols(); ++c) sum += y(r, c);
    EXPECT_NEAR(sum, 1.0F, 1e-6F);
  }
  EXPECT_LT(y(0, 0), y(0, 2));
  EXPECT_NEAR(y(1, 0), 1.0F / 3.0F, 1e-6F);
}

TEST(Softmax, StableForLargeLogits) {
  const Tensor logits = {{1000.0F, 1001.0F}};
  const Tensor y = softmax_rows(logits);
  EXPECT_FALSE(std::isnan(y(0, 0)));
  EXPECT_NEAR(y(0, 0) + y(0, 1), 1.0F, 1e-6F);
}

TEST(Softmax, BackwardMatchesFiniteDifference) {
  util::Rng rng(11);
  Tensor x = Tensor::he_uniform(2, 4, rng);
  const Tensor seed = Tensor::he_uniform(2, 4, rng);
  const Tensor y = softmax_rows(x);
  const Tensor grad = softmax_rows_backward(y, seed);

  const float eps = 1e-3F;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      const float orig = x(r, c);
      auto loss = [&] {
        const Tensor yy = softmax_rows(x);
        float l = 0.0F;
        for (std::size_t i = 0; i < yy.rows(); ++i)
          for (std::size_t j = 0; j < yy.cols(); ++j)
            l += yy(i, j) * seed(i, j);
        return l;
      };
      x(r, c) = orig + eps;
      const float up = loss();
      x(r, c) = orig - eps;
      const float down = loss();
      x(r, c) = orig;
      EXPECT_NEAR(grad(r, c), (up - down) / (2 * eps), 5e-3F);
    }
  }
}

TEST(Init, HeUniformWithinLimit) {
  util::Rng rng(5);
  const Tensor t = Tensor::he_uniform(64, 32, rng);
  const float limit = std::sqrt(6.0F / 64.0F);
  EXPECT_LE(t.max_abs(), limit);
  EXPECT_GT(t.max_abs(), 0.0F);
}

TEST(Init, DeterministicGivenSeed) {
  util::Rng a(9), b(9);
  EXPECT_TRUE(Tensor::he_uniform(8, 8, a) == Tensor::he_uniform(8, 8, b));
}

}  // namespace
}  // namespace mlcr::nn
