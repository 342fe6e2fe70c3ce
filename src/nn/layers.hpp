// Basic layers: Linear, LayerNorm, ReLU, FeedForward.
//
// Besides the cached forward()/backward() pair, the layers that sit on the
// policy network's inference path have a const infer() that writes into a
// caller-sized output and touches no cache, so any number of threads may
// run it on one layer. infer() runs forward()'s operations in forward()'s
// order on the first `rows` rows only: those rows are bit-identical to
// forward()'s, and the rows past them are left as they were.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace mlcr::nn {

/// y = x W + b, x is (T x in), W is (in x out), b is (1 x out).
class Linear final : public Module {
 public:
  Linear(std::size_t in, std::size_t out, util::Rng& rng, bool bias = true);

  [[nodiscard]] Tensor forward(const Tensor& input) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  [[nodiscard]] std::string name() const override { return "Linear"; }

  /// forward() without caches on the first `rows` rows; `out` is
  /// (input.rows() x out_features()).
  void infer(const Tensor& input, std::size_t rows, Tensor& out) const;

  [[nodiscard]] std::size_t in_features() const noexcept {
    return weight_.value.rows();
  }
  [[nodiscard]] std::size_t out_features() const noexcept {
    return weight_.value.cols();
  }
  [[nodiscard]] Parameter& weight() noexcept { return weight_; }
  [[nodiscard]] Parameter* bias() noexcept {
    return has_bias_ ? &bias_ : nullptr;
  }

 private:
  Parameter weight_;
  Parameter bias_;
  bool has_bias_;
  Tensor cached_input_;
};

/// Per-row layer normalization with learned gain and bias.
class LayerNorm final : public Module {
 public:
  explicit LayerNorm(std::size_t dim, float epsilon = 1e-5F);

  [[nodiscard]] Tensor forward(const Tensor& input) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  [[nodiscard]] std::string name() const override { return "LayerNorm"; }

  /// forward() without caches on the first `rows` rows; `out` has input's
  /// shape.
  void infer(const Tensor& input, std::size_t rows, Tensor& out) const;

 private:
  Parameter gain_;
  Parameter bias_;
  float epsilon_;
  Tensor cached_norm_;        // x_hat
  std::vector<float> cached_inv_std_;
};

class ReLU final : public Module {
 public:
  [[nodiscard]] Tensor forward(const Tensor& input) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  Tensor cached_input_;
};

/// y = W2 relu(W1 x + b1) + b2, row by row: the transformer block's
/// feed-forward sublayer and one layer of the no-attention ablation.
class FeedForward final : public Module {
 public:
  FeedForward(std::size_t dim, std::size_t hidden, util::Rng& rng);

  [[nodiscard]] Tensor forward(const Tensor& input) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  [[nodiscard]] std::string name() const override { return "FeedForward"; }

  /// forward() without caches on the first `rows` rows: `hidden` is
  /// (input.rows() x hidden) working space, `out` has input's shape.
  void infer(const Tensor& input, std::size_t rows, Tensor& hidden,
             Tensor& out) const;

 private:
  Linear up_;
  ReLU relu_;
  Linear down_;
};

}  // namespace mlcr::nn
