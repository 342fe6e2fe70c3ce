// Multi-head self-attention and the pre-LN transformer block used by the
// MLCR policy network (paper Sec. IV-B/IV-C: two multi-head attention layers
// help the model capture temporal/workload relationships between the
// function, the cluster, and the warm containers).
#pragma once

#include <vector>

#include "nn/layers.hpp"

namespace mlcr::nn {

/// Caller-owned activations for one TransformerBlock::infer (or
/// MultiHeadAttention::infer) pass over `tokens` rows, sized once and reused
/// by every call. One per thread: infer writes only here.
struct BlockWorkspace {
  BlockWorkspace(std::size_t tokens, std::size_t dim, std::size_t heads,
                 std::size_t ffn_dim);

  Tensor norm;     ///< (T x d) LayerNorm output, the sublayer input
  Tensor q, k, v;  ///< (T x d) projections
  Tensor key_t;    ///< (d / heads x T) one head's keys, transposed
  Tensor scores;   ///< (T x T) one head's scores, then attention weights
  Tensor concat;   ///< (T x d) every head's output side by side
  Tensor out;      ///< (T x d) sublayer output
  Tensor hidden;   ///< (T x ffn_dim) feed-forward hidden layer
};

/// Self-attention over the rows (tokens) of the input matrix (T x d).
class MultiHeadAttention final : public Module {
 public:
  MultiHeadAttention(std::size_t dim, std::size_t heads, util::Rng& rng);

  [[nodiscard]] Tensor forward(const Tensor& input) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  [[nodiscard]] std::string name() const override {
    return "MultiHeadAttention";
  }

  /// forward() without caches: attends over `input` (T x d) into ws.out,
  /// using ws's q/k/v/key_t/scores/concat. last_attention() is untouched.
  void infer(const Tensor& input, BlockWorkspace& ws) const;

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t heads() const noexcept { return heads_; }

  /// Attention weights of the last forward pass, one (T x T) matrix per
  /// head. Useful for interpretability tests and examples.
  [[nodiscard]] const std::vector<Tensor>& last_attention() const noexcept {
    return attn_;
  }

 private:
  std::size_t dim_;
  std::size_t heads_;
  std::size_t head_dim_;
  Linear q_proj_;
  Linear k_proj_;
  Linear v_proj_;
  Linear out_proj_;
  // Forward caches.
  Tensor q_, k_, v_;
  std::vector<Tensor> attn_;
};

/// Pre-LayerNorm transformer block:
///   h = x + MHA(LN1(x));  y = h + FFN(LN2(h)),  FFN = Linear-ReLU-Linear.
class TransformerBlock final : public Module {
 public:
  TransformerBlock(std::size_t dim, std::size_t heads, std::size_t ffn_dim,
                   util::Rng& rng);

  [[nodiscard]] Tensor forward(const Tensor& input) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  [[nodiscard]] std::string name() const override {
    return "TransformerBlock";
  }

  /// forward() without caches, in place: x (T x d) becomes the block's
  /// output.
  void infer(Tensor& x, BlockWorkspace& ws) const;

  [[nodiscard]] MultiHeadAttention& attention() noexcept { return mha_; }

 private:
  LayerNorm ln1_;
  MultiHeadAttention mha_;
  LayerNorm ln2_;
  FeedForward ffn_;
};

}  // namespace mlcr::nn
