// Optimizers: plain SGD (with momentum) and Adam. Both operate on the
// Parameter list collected from a Module tree.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace mlcr::nn {

class Optimizer {
 public:
  explicit Optimizer(std::vector<Parameter*> params)
      : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  /// Apply one update using the accumulated gradients, then clear them.
  virtual void step() = 0;

  /// Scale gradients so their global L2 norm is at most max_norm. Returns
  /// the norm before clipping.
  float clip_grad_norm(float max_norm);

  [[nodiscard]] const std::vector<Parameter*>& params() const noexcept {
    return params_;
  }

 protected:
  std::vector<Parameter*> params_;
};

class Sgd final : public Optimizer {
 public:
  Sgd(std::vector<Parameter*> params, float lr, float momentum = 0.0F);
  void step() override;

 private:
  float lr_;
  float momentum_;
  std::vector<Tensor> velocity_;
};

class Adam final : public Optimizer {
 public:
  Adam(std::vector<Parameter*> params, float lr = 1e-3F, float beta1 = 0.9F,
       float beta2 = 0.999F, float epsilon = 1e-8F);
  void step() override;

  [[nodiscard]] float learning_rate() const noexcept { return lr_; }

 private:
  float lr_, beta1_, beta2_, epsilon_;
  std::size_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace mlcr::nn
