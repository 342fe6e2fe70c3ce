#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/layers.hpp"

namespace mlcr::nn {
namespace {

TEST(Adam, FirstStepHasLearningRateMagnitude) {
  Parameter p("w", Tensor{{1.0F}});
  p.grad = Tensor{{123.0F}};  // magnitude irrelevant on step 1
  Adam opt({&p}, /*lr=*/0.01F);
  opt.step();
  EXPECT_NEAR(p.value(0, 0), 1.0F - 0.01F, 1e-4F);
}

TEST(Adam, MinimizesQuadratic) {
  // f(w) = (w - 3)^2, df/dw = 2(w - 3).
  Parameter p("w", Tensor{{-5.0F}});
  Adam opt({&p}, 0.1F);
  for (int i = 0; i < 500; ++i) {
    p.grad = Tensor{{2.0F * (p.value(0, 0) - 3.0F)}};
    opt.step();
  }
  EXPECT_NEAR(p.value(0, 0), 3.0F, 1e-2F);
}

TEST(Adam, TrainsLinearRegression) {
  // Fit y = 2x + 1 with a 1->1 linear layer.
  util::Rng rng(1);
  Linear lin(1, 1, rng);
  Adam opt(lin.parameters(), 0.05F);
  for (int epoch = 0; epoch < 400; ++epoch) {
    for (float x : {-1.0F, 0.0F, 1.0F, 2.0F}) {
      const float target = 2.0F * x + 1.0F;
      const Tensor y = lin.forward(Tensor{{x}});
      const float err = y(0, 0) - target;
      (void)lin.backward(Tensor{{err}});
    }
    opt.step();
  }
  EXPECT_NEAR(lin.weight().value(0, 0), 2.0F, 0.05F);
  EXPECT_NEAR(lin.bias()->value(0, 0), 1.0F, 0.05F);
}

TEST(Optimizer, ClipGradNormScalesDown) {
  Parameter p("w", Tensor{{0.0F, 0.0F}});
  p.grad = Tensor{{3.0F, 4.0F}};  // norm 5
  Adam opt({&p}, 0.1F);
  opt.clip_grad_norm(1.0F);
  EXPECT_NEAR(std::sqrt(p.grad.squared_norm()), 1.0F, 1e-5F);
  EXPECT_NEAR(p.grad(0, 0) / p.grad(0, 1), 0.75F, 1e-5F)
      << "direction preserved";
}

TEST(Optimizer, ClipGradNormNoOpBelowThreshold) {
  Parameter p("w", Tensor{{0.3F}});
  p.grad = Tensor{{0.5F}};
  Adam opt({&p}, 0.1F);
  opt.clip_grad_norm(1.0F);
  EXPECT_FLOAT_EQ(p.grad(0, 0), 0.5F);
}

}  // namespace
}  // namespace mlcr::nn
