// Adam, the optimizer the DQN trains with. It updates the Parameter list
// collected from a Module tree.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace mlcr::nn {

/// Adam with beta1 0.9, beta2 0.999 and epsilon 1e-8.
class Adam {
 public:
  explicit Adam(std::vector<Parameter*> params, float lr = 1e-3F);

  /// Apply one update using the accumulated gradients, then clear them.
  void step();

  /// Scale gradients so their global L2 norm is at most max_norm. Returns
  /// the norm before clipping.
  float clip_grad_norm(float max_norm);

 private:
  std::vector<Parameter*> params_;
  float lr_;
  std::size_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace mlcr::nn
