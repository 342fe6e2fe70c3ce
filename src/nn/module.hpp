// Module abstraction: Caffe-style explicit forward/backward with cached
// activations. Each module owns its parameters (value + gradient); gradients
// accumulate across backward calls until zero_grad(). The contract is one
// backward() per forward(); batching loops over samples and lets the
// gradients accumulate — at the policy network's sizes (tens of tokens,
// d=64..128) this is faster and far simpler than a general autograd tape.
//
// The layers on the policy network's path write their forward arithmetic
// once, as a static `template <class Self> run(Self& self, ...)` over the
// first `rows` rows of the input. Self's constness picks the pass. On a
// const layer it is inference: it keeps nothing, so any number of threads
// may run it. On a mutable one it is forward()'s training pass, over every
// row, keeping what backward() reads in caches sized once per token count.
// A composite's run() calls its sublayers' run(), so the pass propagates.
#pragma once

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "nn/tensor.hpp"

namespace mlcr::nn {

/// True when a layer's run() is the training pass (Self is mutable).
template <class Self>
inline constexpr bool kTraining = !std::is_const_v<Self>;

/// A learnable tensor and its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter(std::string n, Tensor v)
      : name(std::move(n)),
        value(std::move(v)),
        grad(Tensor::zeros(value.rows(), value.cols())) {}
};

class Module {
 public:
  virtual ~Module() = default;

  /// Compute the output and cache whatever backward() needs.
  [[nodiscard]] virtual Tensor forward(const Tensor& input) = 0;

  /// Propagate dL/d(output) to dL/d(input), accumulating parameter grads.
  /// Must be called exactly once after each forward().
  [[nodiscard]] virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Append pointers to all parameters (recursively for containers).
  virtual void collect_parameters(std::vector<Parameter*>& out) {
    (void)out;
  }

  [[nodiscard]] std::vector<Parameter*> parameters() {
    std::vector<Parameter*> out;
    collect_parameters(out);
    return out;
  }

  void zero_grad() {
    for (Parameter* p : parameters()) p->grad.fill(0.0F);
  }

  /// Total number of scalar parameters.
  [[nodiscard]] std::size_t parameter_count() {
    std::size_t n = 0;
    for (Parameter* p : parameters()) n += p->value.size();
    return n;
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace mlcr::nn
