#include "nn/tensor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

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

/// The plain i-k-j product, the op order gemm must keep, plus `bias` (one
/// row) on every row when it is given.
Tensor ikj_product(const Tensor& a, const Tensor& b,
                   const Tensor* bias = nullptr) {
  Tensor out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const float aik = a(i, k);
      if (aik == 0.0F) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
    if (bias != nullptr)
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += (*bias)(0, j);
  }
  return out;
}

/// matmul_tn's loop before it went through gemm: a^T b, skipping zero a.
Tensor tn_reference(const Tensor& a, const Tensor& b) {
  Tensor out(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const float* arow = a.row(k);
    const float* brow = b.row(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const float aki = arow[i];
      if (aki == 0.0F) continue;
      float* orow = out.row(i);
      for (std::size_t j = 0; j < b.cols(); ++j) orow[j] += aki * brow[j];
    }
  }
  return out;
}

/// matmul_nt's loop before it went through gemm: a b^T, one dot product per
/// entry, every term added.
Tensor nt_reference(const Tensor& a, const Tensor& b) {
  Tensor out(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.row(i);
    float* orow = out.row(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const float* brow = b.row(j);
      float dot = 0.0F;
      for (std::size_t k = 0; k < a.cols(); ++k) dot += arow[k] * brow[k];
      orow[j] = dot;
    }
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

/// a . b (+ bias) through one gemm body.
Tensor product_on(const detail::GemmBody& body, const Tensor& a,
                  const Tensor& b, bool skip_zero_a,
                  const Tensor* bias = nullptr) {
  Tensor out(a.rows(), b.cols());
  body.run(a.data(), a.cols(), b.data(), b.cols(),
           bias == nullptr ? nullptr : bias->data(), out.data(), out.cols(),
           a.rows(), a.cols(), b.cols(), skip_zero_a);
  return out;
}

// The host binds gemm to one body; the others run only through
// gemm_bodies, so it must list every body the CPU supports.
TEST(Matmul, EveryBodyTheCpuRunsIsListed) {
  __builtin_cpu_init();
  std::vector<std::string> expected;
  if (__builtin_cpu_supports("avx512f")) expected.emplace_back("avx512f");
  if (__builtin_cpu_supports("avx2")) expected.emplace_back("avx2");
  expected.emplace_back("baseline");
  std::vector<std::string> listed;
  for (const detail::GemmBody& body : detail::gemm_bodies())
    listed.emplace_back(body.isa);
  EXPECT_EQ(listed, expected);
}

// Widths cover every panel (16, 8, 4, 1) and their tails, and k runs from 0
// to 300. Row counts 1-11 at the network's (k, n) shapes pin every
// leftover-row tile, in every body the CPU runs.
TEST(Matmul, MatchesTheIkjLoopBitForBit) {
  util::Rng rng(5);
  const auto check = [&rng](std::size_t m, std::size_t k, std::size_t n) {
    const Tensor a = sparse_uniform(m, k, rng);
    const Tensor b = sparse_uniform(k, n, rng);
    const Tensor bias = sparse_uniform(1, n, rng);
    const Tensor ref = ikj_product(a, b);
    const Tensor ref_bias = ikj_product(a, b, &bias);
    for (const detail::GemmBody& body : detail::gemm_bodies()) {
      SCOPED_TRACE(::testing::Message()
                   << body.isa << ": " << m << "x" << k << "x" << n);
      expect_same_bits(product_on(body, a, b, true), ref);
      expect_same_bits(product_on(body, a, b, false), ref);
      expect_same_bits(product_on(body, a, b, true, &bias), ref_bias);
    }
    expect_same_bits(matmul(a, b), ref);
  };
  const std::size_t shapes[][3] = {{3, 0, 5},   {2, 7, 1},   {5, 16, 48},
                                   {4, 20, 97}, {3, 300, 25}, {26, 26, 24},
                                   {6, 48, 96}, {1, 129, 63}};
  for (const auto& s : shapes) check(s[0], s[1], s[2]);
  const std::size_t net_kn[][2] = {{26, 24}, {24, 26}, {16, 48}, {48, 48},
                                   {96, 48}, {48, 96}};
  for (std::size_t m = 1; m <= 11; ++m)
    for (const auto& kn : net_kn) check(m, kn[0], kn[1]);
}

// A zero a(i, p) against an inf or NaN b(p, j) is where the zero-skip shows:
// skipped, the row stays finite; added, it turns NaN. The kernel adds every
// term first and redoes the product with the skip when an output is not
// finite, so a non-finite entry in a, in b or in the bias must each leave
// the skipping loop's bits, at every leftover-row count and in every body.
TEST(Matmul, ZeroSkipHoldsAgainstNonFiniteEntries) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  util::Rng rng(7);
  for (const detail::GemmBody& body : detail::gemm_bodies())
    for (std::size_t m = 1; m <= 11; ++m)
      for (const std::size_t n : {24, 26, 48, 96}) {
        SCOPED_TRACE(::testing::Message()
                     << body.isa << ": m " << m << ", n " << n);
        // The last row skips a zero against an inf and one against a NaN;
        // row 0, when it is another row, adds 0.5 * inf.
        Tensor a = sparse_uniform(m, 20, rng);
        Tensor b = sparse_uniform(20, n, rng);
        const Tensor bias = sparse_uniform(1, n, rng);
        const std::size_t last = m - 1;
        a(0, 3) = 0.5F;
        a(last, 3) = 0.0F;
        a(last, 4) = 0.0F;
        b(3, 5) = inf;
        b(4, 17) = nan;
        Tensor out = product_on(body, a, b, true);
        EXPECT_TRUE(std::isfinite(out(last, 5)));
        EXPECT_TRUE(std::isfinite(out(last, 17)));
        EXPECT_TRUE(m == 1 || std::isinf(out(0, 5)));
        expect_same_bits(out, ikj_product(a, b));
        expect_same_bits(product_on(body, a, b, true, &bias),
                         ikj_product(a, b, &bias));

        // Finite b, an inf in a's last row and a NaN in row 0 instead (one
        // kind per row: two NaNs with different bits could meet in either
        // order).
        b(3, 5) = 1.0F;
        b(4, 17) = 0.0F;
        a(last, 7) = inf;
        if (m > 1) a(0, 9) = nan;
        expect_same_bits(product_on(body, a, b, true), ikj_product(a, b));

        // And in the bias alone.
        a(last, 7) = 1.0F;
        a(0, 9) = 0.0F;
        Tensor bad_bias = bias;
        bad_bias(0, n - 1) = inf;
        bad_bias(0, 0) = nan;
        out = product_on(body, a, b, true, &bad_bias);
        EXPECT_TRUE(std::isinf(out(last, n - 1)));
        expect_same_bits(out, ikj_product(a, b, &bad_bias));
      }
}

// c is written before the kernel knows whether to redo it, so it must not
// share memory with an operand.
TEST(Matmul, GemmRejectsAnOutputOverlappingAnOperand) {
  Tensor a(4, 8, 1.0F);
  Tensor b(8, 8, 1.0F);
  const auto product = [&a, &b](float* c, std::size_t m, std::size_t n) {
    gemm(a.data(), 8, b.data(), 8, nullptr, c, 8, m, 8, n, true);
  };
  EXPECT_THROW(product(a.data() + 4, 4, 4), util::CheckError);
  EXPECT_THROW(product(b.data() + 56, 1, 8), util::CheckError);
  Tensor c(4, 8);
  product(c.data(), 4, 8);
  EXPECT_FLOAT_EQ(c(3, 7), 8.0F);
}

// Without the zero skip, every body is matmul_nt's old dot product, term
// for term, against a transposed operand.
TEST(Matmul, GemmWithoutSkipMatchesMatmulNt) {
  util::Rng rng(6);
  const Tensor a = sparse_uniform(26, 24, rng);
  const Tensor c = sparse_uniform(26, 24, rng);
  for (const detail::GemmBody& body : detail::gemm_bodies()) {
    SCOPED_TRACE(body.isa);
    expect_same_bits(product_on(body, a, c.transposed(), false),
                     nt_reference(a, c));
  }
  expect_same_bits(matmul_nt(a, c), nt_reference(a, c));
}

// matmul_tn and matmul_nt go through gemm on a transposed operand; they
// keep their old loops' bits at every leftover-row count, with an inf or a
// NaN in either operand (one per product, so each output sees at most one
// kind of non-finite term).
TEST(Matmul, TransposedProductsMatchTheirOldLoopsBitForBit) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  util::Rng rng(8);
  for (std::size_t m = 1; m <= 11; ++m)
    for (const std::size_t n : {1, 24, 26, 48}) {
      for (int poison = 0; poison < 5; ++poison) {
        SCOPED_TRACE(::testing::Message()
                     << "m " << m << ", n " << n << ", case " << poison);
        Tensor tn_a = sparse_uniform(26, m, rng);  // (k x m)
        Tensor tn_b = sparse_uniform(26, n, rng);  // (k x n)
        Tensor nt_a = sparse_uniform(m, 24, rng);  // (m x k)
        Tensor nt_b = sparse_uniform(n, 24, rng);  // (n x k)
        const float bad = poison % 2 == 1 ? inf : nan;
        if (poison == 1 || poison == 2) {
          tn_a(5, m - 1) = bad;
          nt_a(m - 1, 5) = bad;
        } else if (poison == 3 || poison == 4) {
          tn_b(6, n - 1) = bad;
          nt_b(n - 1, 6) = bad;
        }
        expect_same_bits(matmul_tn(tn_a, tn_b), tn_reference(tn_a, tn_b));
        expect_same_bits(matmul_nt(nt_a, nt_b), nt_reference(nt_a, nt_b));
      }
    }
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

// softmax_rows_ with `distinct` < cols reads only the first `distinct`
// columns, the others standing for copies of column distinct - 1, as
// attention's score columns do when keys repeat. It must be softmax_rows of
// the row with the copies in place, bit for bit, repeated infs and NaNs
// included.
TEST(Softmax, DistinctColumnsMatchTheFullRowBitForBit) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::size_t cols = 26;
  util::Rng rng(13);
  for (std::size_t distinct = 1; distinct <= cols; ++distinct) {
    SCOPED_TRACE(::testing::Message() << "distinct " << distinct);
    // Row 0 repeats a random value, row 1 the row's maximum, rows 2-4 +inf,
    // -inf and NaN, and row 5 a random value after a NaN in column 0.
    Tensor t = Tensor::he_uniform(6, cols, rng);
    t.scale_(8.0F);
    const float random0 = t(0, distinct - 1);
    const float random5 = t(5, distinct - 1);
    const float repeated[] = {random0, 40.0F, inf, -inf, nan, random5};
    t(5, 0) = nan;
    for (std::size_t r = 0; r < t.rows(); ++r)
      for (std::size_t c = distinct - 1; c < cols; ++c) t(r, c) = repeated[r];
    const Tensor full = softmax_rows(t);
    // Columns [distinct, cols) stand for copies and must not be read.
    for (std::size_t r = 0; r < t.rows(); ++r)
      for (std::size_t c = distinct; c < cols; ++c) t(r, c) = -nan;
    softmax_rows_(t, t.rows(), distinct);
    expect_same_bits(t, full);
  }
  Tensor t(2, 4);
  EXPECT_THROW(softmax_rows_(t, 2, 0), util::CheckError);
  EXPECT_THROW(softmax_rows_(t, 2, 5), util::CheckError);
  EXPECT_THROW(softmax_rows_(t, 3, 4), util::CheckError);
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
