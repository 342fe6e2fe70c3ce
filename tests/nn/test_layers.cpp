#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "nn/gradcheck.hpp"
#include "util/check.hpp"

namespace mlcr::nn {
namespace {

TEST(Linear, ForwardKnownValues) {
  util::Rng rng(1);
  Linear lin(2, 2, rng);
  lin.weight().value = Tensor{{1.0F, 2.0F}, {3.0F, 4.0F}};
  lin.bias()->value = Tensor{{0.5F, -0.5F}};
  const Tensor y = lin.forward(Tensor{{1.0F, 1.0F}});
  EXPECT_FLOAT_EQ(y(0, 0), 4.5F);   // 1*1 + 1*3 + 0.5
  EXPECT_FLOAT_EQ(y(0, 1), 5.5F);   // 1*2 + 1*4 - 0.5
}

TEST(Linear, ForwardShapeCheck) {
  util::Rng rng(1);
  Linear lin(3, 2, rng);
  EXPECT_THROW((void)lin.forward(Tensor(1, 4)), util::CheckError);
}

TEST(Linear, NoBiasVariantHasOneParameter) {
  util::Rng rng(1);
  Linear lin(3, 2, rng, /*bias=*/false);
  EXPECT_EQ(lin.parameters().size(), 1U);
  EXPECT_EQ(lin.bias(), nullptr);
}

TEST(Linear, GradCheck) {
  util::Rng rng(2);
  Linear lin(5, 3, rng);
  const Tensor x = Tensor::he_uniform(4, 5, rng);
  const Tensor seed = Tensor::he_uniform(4, 3, rng);
  EXPECT_LT(check_input_gradient(lin, x, seed).max_rel_error, 2e-2F);
  EXPECT_LT(check_parameter_gradients(lin, x, seed).max_rel_error, 2e-2F);
}

TEST(Linear, GradientsAccumulateAcrossBackwardCalls) {
  util::Rng rng(2);
  Linear lin(2, 2, rng);
  const Tensor x = Tensor::he_uniform(1, 2, rng);
  const Tensor seed(1, 2, 1.0F);
  (void)lin.forward(x);
  (void)lin.backward(seed);
  const Tensor once = lin.weight().grad;
  (void)lin.forward(x);
  (void)lin.backward(seed);
  for (std::size_t i = 0; i < once.size(); ++i)
    EXPECT_NEAR(lin.weight().grad.data()[i], 2.0F * once.data()[i], 1e-6F);
  lin.zero_grad();
  EXPECT_FLOAT_EQ(lin.weight().grad.max_abs(), 0.0F);
}

TEST(LayerNorm, NormalizesRows) {
  LayerNorm ln(4);
  const Tensor x = {{1.0F, 2.0F, 3.0F, 4.0F}};
  const Tensor y = ln.forward(x);
  float mean = 0.0F, var = 0.0F;
  for (std::size_t c = 0; c < 4; ++c) mean += y(0, c);
  mean /= 4.0F;
  for (std::size_t c = 0; c < 4; ++c)
    var += (y(0, c) - mean) * (y(0, c) - mean);
  EXPECT_NEAR(mean, 0.0F, 1e-5F);
  EXPECT_NEAR(var / 4.0F, 1.0F, 1e-3F);
}

TEST(LayerNorm, GradCheck) {
  util::Rng rng(3);
  LayerNorm ln(6);
  // Non-trivial gain/bias so their gradients are exercised.
  auto params = ln.parameters();
  params[0]->value = Tensor::he_uniform(1, 6, rng);
  params[1]->value = Tensor::he_uniform(1, 6, rng);
  const Tensor x = Tensor::he_uniform(3, 6, rng);
  const Tensor seed = Tensor::he_uniform(3, 6, rng);
  EXPECT_LT(check_input_gradient(ln, x, seed).max_rel_error, 3e-2F);
  EXPECT_LT(check_parameter_gradients(ln, x, seed).max_rel_error, 3e-2F);
}

[[nodiscard]] std::uint32_t bits(float x) {
  return std::bit_cast<std::uint32_t>(x);
}

/// One row of LayerNorm, the plain way: each sum in ascending column order.
void layer_norm_row(const float* x, std::size_t dim, float epsilon,
                    const float* gain, const float* bias, float* x_hat,
                    float& inv_std, float* out) {
  const float n = static_cast<float>(dim);
  float mean = 0.0F;
  for (std::size_t c = 0; c < dim; ++c) mean += x[c];
  mean /= n;
  float var = 0.0F;
  for (std::size_t c = 0; c < dim; ++c) var += (x[c] - mean) * (x[c] - mean);
  var /= n;
  inv_std = 1.0F / std::sqrt(var + epsilon);
  for (std::size_t c = 0; c < dim; ++c) {
    x_hat[c] = (x[c] - mean) * inv_std;
    out[c] = x_hat[c] * gain[c] + bias[c];
  }
}

/// 26 rows of `dim` features cycling through six kinds: plain, one +inf,
/// one -inf, one NaN, all -0, and every other entry -0.
Tensor awkward_rows(std::size_t dim, util::Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  Tensor x = Tensor::he_uniform(26, dim, rng);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    float* row = x.row(r);
    const std::size_t kind = r % 6;
    if (kind == 1) row[r % dim] = inf;
    if (kind == 2) row[r % dim] = -inf;
    if (kind == 3) row[r % dim] = std::numeric_limits<float>::quiet_NaN();
    for (std::size_t c = 0; c < dim; ++c)
      if (kind == 4 || (kind == 5 && c % 2 == 0)) row[c] = -0.0F;
  }
  return x;
}

// Rows run eight side by side, then the 1-7 left over in one tile; every
// row count from one to the 26 token rows must still give each row's bits
// exactly as a lone row would, on both paths: the training pass (all rows,
// keeping x_hat and 1 / std) and inference (the first `rows` of 26, leaving
// the rest of `out` as it was).
TEST(LayerNorm, EveryRowCountMatchesOneRowAtATimeBitForBit) {
  for (const std::size_t dim : {11U, 48U}) {
    util::Rng rng(5);
    LayerNorm ln(dim);
    auto params = ln.parameters();
    params[0]->value = Tensor::he_uniform(1, dim, rng);
    params[1]->value = Tensor::he_uniform(1, dim, rng);
    const float* gain = params[0]->value.data();
    const float* bias = params[1]->value.data();
    const Tensor x = awkward_rows(dim, rng);

    Tensor want(x.rows(), dim);
    Tensor want_hat(x.rows(), dim);
    std::vector<float> want_inv_std(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r)
      layer_norm_row(x.row(r), dim, 1e-5F, gain, bias, want_hat.row(r),
                     want_inv_std[r], want.row(r));

    for (std::size_t rows = 1; rows <= x.rows(); ++rows) {
      SCOPED_TRACE(testing::Message() << "dim " << dim << ", rows " << rows);
      Tensor head(rows, dim);
      std::copy_n(x.data(), rows * dim, head.data());
      const Tensor out = ln.forward(head);
      ASSERT_EQ(ln.kept_inv_std().size(), rows);
      Tensor served(x.rows(), dim, 7.0F);
      LayerNorm::run(std::as_const(ln), x, rows, served);
      for (std::size_t r = 0; r < x.rows(); ++r) {
        if (r < rows) {
          EXPECT_EQ(bits(ln.kept_inv_std()[r]), bits(want_inv_std[r])) << r;
        }
        for (std::size_t c = 0; c < dim; ++c) {
          if (r >= rows) {
            EXPECT_EQ(bits(served(r, c)), bits(7.0F)) << r << ", " << c;
            continue;
          }
          EXPECT_EQ(bits(out(r, c)), bits(want(r, c))) << r << ", " << c;
          EXPECT_EQ(bits(ln.kept_norm()(r, c)), bits(want_hat(r, c)))
              << r << ", " << c;
          EXPECT_EQ(bits(served(r, c)), bits(want(r, c))) << r << ", " << c;
        }
      }
    }
  }
}

/// A FeedForward whose two Linears are identities, so it computes relu(x)
/// and its backward() is the ReLU's mask.
FeedForward identity_relu(std::size_t dim) {
  util::Rng rng(1);
  FeedForward ff(dim, dim, rng);
  const auto params = ff.parameters();  // up (weight, bias), down (same)
  for (Parameter* p : params) p->value.fill(0.0F);
  for (std::size_t i = 0; i < dim; ++i) {
    params[0]->value(i, i) = 1.0F;
    params[2]->value(i, i) = 1.0F;
  }
  return ff;
}

TEST(ReLU, ForwardClampsNegatives) {
  FeedForward relu = identity_relu(3);
  const Tensor y = relu.forward(Tensor{{-1.0F, 0.0F, 2.0F}});
  EXPECT_FLOAT_EQ(y(0, 0), 0.0F);
  EXPECT_FLOAT_EQ(y(0, 1), 0.0F);
  EXPECT_FLOAT_EQ(y(0, 2), 2.0F);
}

// The mask comes from the kept relu(x), and relu(x) <= 0 exactly when
// x <= 0: a NaN (a NaN input makes its whole hidden row NaN) passes the
// gradient like a positive.
TEST(ReLU, BackwardMasksNegatives) {
  FeedForward relu = identity_relu(4);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  (void)relu.forward(Tensor{{-1.0F, 2.0F, 0.0F, 3.0F}, {nan, nan, nan, nan}});
  const Tensor g = relu.backward(Tensor(2, 4, 5.0F));
  const Tensor want = {{0.0F, 5.0F, 0.0F, 5.0F}, {5.0F, 5.0F, 5.0F, 5.0F}};
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_FLOAT_EQ(g.data()[i], want.data()[i]) << "entry " << i;
}

// The ReLU must keep the bits of every entry not below zero: +0, +inf, a
// NaN of either sign with its payload, a positive subnormal; and clear the
// rest (-inf, a negative subnormal, a negative) to +0. The entries reach the
// hidden layer through the up projection's bias (zero weights): its sums
// start at +0, so a -0 bias arrives as +0, and no -0 ever reaches the ReLU.
TEST(ReLU, RunKeepsTheBitsOfEveryEntryNotBelowZero) {
  const float inf = std::numeric_limits<float>::infinity();
  const float sub = std::numeric_limits<float>::denorm_min() * 5.0F;
  const float nan_pos = std::bit_cast<float>(0x7FC01234U);
  const float nan_neg = std::bit_cast<float>(0xFFC05678U);
  const Tensor in_bias{
      {-0.0F, 0.0F, inf, -inf, nan_pos, nan_neg, sub, -sub, -2.5F, 3.0F}};
  const Tensor want{
      {0.0F, 0.0F, inf, 0.0F, nan_pos, nan_neg, sub, 0.0F, 0.0F, 3.0F}};
  const std::size_t hidden_dim = in_bias.cols();

  util::Rng rng(1);
  FeedForward ff(2, hidden_dim, rng);
  const auto params = ff.parameters();  // up (weight, bias), down (same)
  params[0]->value.fill(0.0F);
  params[1]->value = in_bias;
  const FeedForward& served = ff;

  // Two live rows of three; the third hidden row must stay as it was.
  const Tensor input(3, 2, 1.0F);
  Tensor hidden(3, hidden_dim, -7.0F);
  Tensor out(3, 2);
  FeedForward::run(served, input, 2, hidden, out);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < hidden_dim; ++c)
      EXPECT_EQ(bits(hidden(r, c)), bits(r < 2 ? want(0, c) : -7.0F))
          << "(" << r << ", " << c << ")";
}

TEST(FeedForward, GradCheck) {
  util::Rng rng(4);
  FeedForward ff(4, 8, rng);
  EXPECT_EQ(ff.parameters().size(), 4U);

  const Tensor x = Tensor::he_uniform(3, 4, rng);
  const Tensor seed = Tensor::he_uniform(3, 4, rng);
  EXPECT_LT(check_input_gradient(ff, x, seed).max_rel_error, 3e-2F);
  EXPECT_LT(check_parameter_gradients(ff, x, seed).max_rel_error, 3e-2F);
}

TEST(Module, ParameterCount) {
  util::Rng rng(1);
  Linear lin(10, 4, rng);
  EXPECT_EQ(lin.parameter_count(), 10U * 4U + 4U);
}

}  // namespace
}  // namespace mlcr::nn
