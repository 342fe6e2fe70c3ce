// Policy/Q network (paper Fig. 7): the state is a token matrix — one cluster
// token, one function token, and one token per warm-pool slot — which is
// projected into an embedding space, passed through two multi-head-attention
// (transformer) layers, and reduced to one Q-value per action by a linear
// head. Action i in [0, n) reuses slot i's container; action n is cold start
// (paper Sec. IV-B). A mask filters manifestly wrong actions (Sec. IV-C).
#pragma once

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
/// thread (or per scheduler) — never shared by concurrent calls. forward()
/// runs in one of its own.
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
  /// The training pass of run() over every row.
  [[nodiscard]] nn::Tensor forward(const nn::Tensor& tokens) override;

  /// The inference path: run() on a const network, computed in `ws` and
  /// returned as a view of ws.q. It keeps nothing, so any number of
  /// threads may call it on one network, each with its own workspace.
  /// A trailing run of bit-identical token rows (the empty slots) is
  /// computed once, as its first row: every layer maps equal rows to equal
  /// rows, and attention still sees all T keys and values.
  [[nodiscard]] const nn::Tensor& infer(const nn::Tensor& tokens,
                                        InferWorkspace& ws) const;

  /// Throws util::CheckError unless `tokens` is a state this network takes:
  /// (2 + num_slots) x feature_dim. forward() and infer() begin with it.
  void check_tokens(const nn::Tensor& tokens) const;

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
  std::vector<nn::TransformerBlock> blocks_;
  /// MLP path for the no-attention ablation.
  std::vector<nn::FeedForward> mlp_;
  nn::LayerNorm final_norm_;
  nn::Linear value_head_;
  InferWorkspace train_ws_;  ///< forward()'s activations

  /// The forward body, into ws.q, with rows [live, T) of `tokens` taken to
  /// repeat row live - 1 (see nn::MultiHeadAttention::run).
  template <class Self>
  static void run(Self& self, const nn::Tensor& tokens, std::size_t live,
                  InferWorkspace& ws);
};

/// argmax over allowed actions; `mask` has q.rows() entries (mask[i] != 0
/// means allowed). Returns nullopt if nothing is allowed.
[[nodiscard]] std::optional<std::size_t> masked_argmax(const nn::Tensor& q,
                                                       const ActionMask& mask);

/// The allowed action when `mask` allows exactly one, else nullopt (a
/// single-action mask). masked_argmax returns that action whatever the
/// Q-values are, NaN included, so a caller may take it without computing
/// them.
[[nodiscard]] std::optional<std::size_t> sole_allowed_action(
    const ActionMask& mask);

}  // namespace mlcr::rl
