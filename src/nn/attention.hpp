// Multi-head self-attention and the pre-LN transformer block used by the
// MLCR policy network (paper Sec. IV-B/IV-C: two multi-head attention layers
// help the model capture temporal/workload relationships between the
// function, the cluster, and the warm containers).
#pragma once

#include <vector>

#include "nn/layers.hpp"

namespace mlcr::nn {

/// Caller-owned activations for one TransformerBlock::run (or
/// MultiHeadAttention::run) pass over `tokens` rows, sized once and reused
/// by every call. One per thread: inference writes only here.
struct BlockWorkspace {
  BlockWorkspace() = default;  ///< empty: sized before first use
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

  /// The forward body: the first `rows` query rows of `input` (T x d) into
  /// ws.out. Rows [rows, T) of `input` must repeat row rows - 1: their keys
  /// and values are copied from it, not computed. Inference works in ws's
  /// q/k/v/key_t/scores/concat. The training pass (rows == T) works in the
  /// layer's own cache instead, sized once per T, and leaves each head's
  /// weights in last_attention(); backward() reads both.
  template <class Self>
  static void run(Self& self, const Tensor& input, std::size_t rows,
                  BlockWorkspace& ws);

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t heads() const noexcept { return heads_; }

  /// Attention weights of the last training pass, one (T x T) matrix per
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
  // Training caches.
  BlockWorkspace cache_;
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

  /// The forward body, in place on the first `rows` rows of x (T x d),
  /// which become the block's output; rows [rows, T) must repeat row
  /// rows - 1 (see MultiHeadAttention::run) and are left as they were.
  template <class Self>
  static void run(Self& self, Tensor& x, std::size_t rows,
                  BlockWorkspace& ws);

  [[nodiscard]] MultiHeadAttention& attention() noexcept { return mha_; }

 private:
  LayerNorm ln1_;
  MultiHeadAttention mha_;
  LayerNorm ln2_;
  FeedForward ffn_;
};

}  // namespace mlcr::nn
