#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <limits>

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
