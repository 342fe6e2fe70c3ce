// Policy/Q network (paper Fig. 7): the state is a token matrix — one cluster
// token, one function token, and one token per warm-pool slot — which is
// projected into an embedding space, passed through two multi-head-attention
// (transformer) layers, and reduced to one Q-value per action by a linear
// head. Action i in [0, n) reuses slot i's container; action n is cold start
// (paper Sec. IV-B). A mask filters manifestly wrong actions (Sec. IV-C).
#pragma once

#include <memory>
#include <optional>

#include "nn/attention.hpp"
#include "rl/replay_buffer.hpp"

namespace mlcr::rl {

struct QNetworkConfig {
  std::size_t feature_dim = 16;  ///< per-token input features F
  std::size_t num_slots = 16;    ///< warm-pool slots n; actions = n + 1
  std::size_t embed_dim = 64;    ///< d (paper uses 512; scaled for CPU)
  std::size_t heads = 2;         ///< attention heads (paper: 2)
  std::size_t blocks = 2;        ///< attention layers (paper: 2)
  std::size_t ffn_dim = 128;     ///< transformer feed-forward width
  /// If true, use an MLP instead of attention blocks (ablation, Sec. IV-C).
  bool use_attention = true;
};

/// Token layout inside the state matrix.
inline constexpr std::size_t kClusterTokenRow = 0;
inline constexpr std::size_t kFunctionTokenRow = 1;
inline constexpr std::size_t kFirstSlotTokenRow = 2;

/// Caller-owned activations for QNetwork::infer, sized once from the
/// network's config; infer allocates nothing and writes only here. One per
/// thread (or per scheduler) — never shared by concurrent calls.
struct InferWorkspace {
  explicit InferWorkspace(const QNetworkConfig& config);

  nn::Tensor h;  ///< (T x d) residual stream
  nn::BlockWorkspace block;
  nn::Tensor values;  ///< (T x 1) value head output
  nn::Tensor q;       ///< (num_slots + 1 x 1) the result
};

class QNetwork final : public nn::Module {
 public:
  QNetwork(QNetworkConfig config, util::Rng& rng);

  /// tokens: ((2 + num_slots) x feature_dim) -> Q: ((num_slots + 1) x 1).
  [[nodiscard]] nn::Tensor forward(const nn::Tensor& tokens) override;

  /// The inference path: forward()'s operations in forward()'s order, so
  /// the Q-values are bit-identical to forward()'s, computed in `ws` and
  /// returned as a view of ws.q. Const and cache-free: any number of threads
  /// may call it on one network, each with its own workspace.
  [[nodiscard]] const nn::Tensor& infer(const nn::Tensor& tokens,
                                        InferWorkspace& ws) const;

  [[nodiscard]] nn::Tensor backward(const nn::Tensor& grad_q) override;
  void collect_parameters(std::vector<nn::Parameter*>& out) override;
  [[nodiscard]] std::string name() const override { return "QNetwork"; }

  [[nodiscard]] const QNetworkConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t num_actions() const noexcept {
    return config_.num_slots + 1;
  }
  [[nodiscard]] std::size_t num_tokens() const noexcept {
    return kFirstSlotTokenRow + config_.num_slots;
  }

 private:
  QNetworkConfig config_;
  nn::Linear input_proj_;
  std::vector<std::unique_ptr<nn::TransformerBlock>> blocks_;
  /// MLP path for the no-attention ablation.
  std::vector<std::unique_ptr<nn::FeedForward>> mlp_;
  nn::LayerNorm final_norm_;
  nn::Linear value_head_;
  std::size_t cached_tokens_ = 0;
};

/// argmax over allowed actions; `mask` has q.rows() entries (mask[i] != 0
/// means allowed). Returns nullopt if nothing is allowed.
[[nodiscard]] std::optional<std::size_t> masked_argmax(const nn::Tensor& q,
                                                       const ActionMask& mask);

}  // namespace mlcr::rl
