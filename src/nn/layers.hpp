// Basic layers: Linear, LayerNorm, FeedForward.
//
// Each has one forward body, run() (see module.hpp), which writes the first
// `rows` rows of a caller-sized output and leaves the rows past them as they
// were. forward() runs it on every row and keeps what backward() reads.
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

  /// The forward body: one gemm with the bias; `out` is (input.rows() x
  /// out_features()). The training pass first keeps the input.
  template <class Self>
  static void run(Self& self, const Tensor& input, std::size_t rows,
                  Tensor& out);

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
  /// The input of the last training pass, which backward() reads.
  [[nodiscard]] const Tensor& kept_input() const noexcept {
    return cached_input_;
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

  /// The forward body; `out` has input's shape. The training pass also
  /// keeps x_hat and each row's 1 / std.
  template <class Self>
  static void run(Self& self, const Tensor& input, std::size_t rows,
                  Tensor& out);

  /// x_hat and each row's 1 / std from the last training pass, which
  /// backward() reads.
  [[nodiscard]] const Tensor& kept_norm() const noexcept {
    return cached_norm_;
  }
  [[nodiscard]] const std::vector<float>& kept_inv_std() const noexcept {
    return cached_inv_std_;
  }

 private:
  Parameter gain_;
  Parameter bias_;
  float epsilon_;
  Tensor cached_norm_;        // x_hat
  std::vector<float> cached_inv_std_;
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

  /// The forward body: `hidden` is (input.rows() x hidden_dim()) working
  /// space, `out` has input's shape. down_ keeps relu(W1 x + b1), which
  /// is also the mask backward() needs.
  template <class Self>
  static void run(Self& self, const Tensor& input, std::size_t rows,
                  Tensor& hidden, Tensor& out);

  [[nodiscard]] std::size_t hidden_dim() const noexcept {
    return up_.out_features();
  }

 private:
  Linear up_;
  Linear down_;
};

}  // namespace mlcr::nn
