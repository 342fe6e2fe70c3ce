#include "rl/qnetwork.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/audit.hpp"
#include "util/check.hpp"

namespace mlcr::rl {

InferWorkspace::InferWorkspace(const QNetworkConfig& config)
    : h(kFirstSlotTokenRow + config.num_slots, config.embed_dim),
      block(kFirstSlotTokenRow + config.num_slots, config.embed_dim,
            config.use_attention ? config.heads : 1, config.ffn_dim),
      values(kFirstSlotTokenRow + config.num_slots, 1),
      q(config.num_slots + 1, 1) {}

QNetwork::QNetwork(QNetworkConfig config, util::Rng& rng)
    : config_(config),
      input_proj_(config.feature_dim, config.embed_dim, rng),
      final_norm_(config.embed_dim),
      value_head_(config.embed_dim, 1, rng),
      train_ws_(config) {
  MLCR_CHECK(config_.feature_dim > 0 && config_.num_slots > 0);
  MLCR_CHECK(config_.embed_dim > 0 && config_.blocks > 0);
  for (std::size_t i = 0; i < config_.blocks; ++i) {
    if (config_.use_attention)
      blocks_.emplace_back(config_.embed_dim, config_.heads, config_.ffn_dim,
                           rng);
    else  // ablation: per-token MLP of matching depth, no token mixing
      mlp_.emplace_back(config_.embed_dim, config_.ffn_dim, rng);
  }
}

void QNetwork::check_tokens(const nn::Tensor& tokens) const {
  MLCR_CHECK_MSG(tokens.rows() == num_tokens() &&
                     tokens.cols() == config_.feature_dim,
                 "expected tokens " << num_tokens() << "x"
                                    << config_.feature_dim << ", got "
                                    << tokens.rows() << "x" << tokens.cols());
}

template <class Self>
void QNetwork::run(Self& self, const nn::Tensor& tokens, std::size_t live,
                   InferWorkspace& ws) {
  nn::Linear::run(self.input_proj_, tokens, live, ws.h);
  for (auto& block : self.blocks_)
    nn::TransformerBlock::run(block, ws.h, live, ws.block);
  for (auto& layer : self.mlp_) {
    nn::FeedForward::run(layer, ws.h, live, ws.block.hidden, ws.block.out);
    std::swap(ws.h, ws.block.out);
  }
  nn::LayerNorm::run(self.final_norm_, ws.h, live, ws.block.norm);
  nn::Linear::run(self.value_head_, ws.block.norm, live, ws.values);
  const auto value = [&](std::size_t row) {
    return ws.values(std::min(row, live - 1), 0);
  };
  const std::size_t slots = self.config_.num_slots;
  for (std::size_t slot = 0; slot < slots; ++slot)
    ws.q(slot, 0) = value(kFirstSlotTokenRow + slot);
  ws.q(slots, 0) = value(kFunctionTokenRow);  // cold start
}

nn::Tensor QNetwork::forward(const nn::Tensor& tokens) {
  check_tokens(tokens);
  run(*this, tokens, num_tokens(), train_ws_);
  return train_ws_.q;
}

const nn::Tensor& QNetwork::infer(const nn::Tensor& tokens,
                                  InferWorkspace& ws) const {
  check_tokens(tokens);
  // The layers check the shapes they write; ws.q is filled here.
  MLCR_CHECK_MSG(ws.q.rows() == num_actions(),
                 "workspace sized for another network");
  // Rows [live, T) repeat row live - 1 bit for bit (memcmp keeps NaN, +0
  // and -0 apart), so their results are row live - 1's.
  const std::size_t bytes = tokens.cols() * sizeof(float);
  std::size_t live = num_tokens();
  while (live > 1 &&
         std::memcmp(tokens.row(live - 2), tokens.row(live - 1), bytes) == 0)
    --live;
  run(*this, tokens, live, ws);
  MLCR_AUDIT_POINT({
    InferWorkspace every_row(config_);
    run(*this, tokens, num_tokens(), every_row);
    MLCR_CHECK_MSG(std::memcmp(every_row.q.data(), ws.q.data(),
                               ws.q.size() * sizeof(float)) == 0,
                   "Q-values over the distinct rows differ from those over "
                   "every row");
  });
  return ws.q;
}

nn::Tensor QNetwork::backward(const nn::Tensor& grad_q) {
  MLCR_CHECK(grad_q.rows() == num_actions() && grad_q.cols() == 1);
  nn::Tensor grad_values(num_tokens(), 1);
  for (std::size_t slot = 0; slot < config_.num_slots; ++slot)
    grad_values(kFirstSlotTokenRow + slot, 0) = grad_q(slot, 0);
  grad_values(kFunctionTokenRow, 0) = grad_q(config_.num_slots, 0);

  nn::Tensor g = value_head_.backward(grad_values);
  g = final_norm_.backward(g);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it)
    g = it->backward(g);
  for (auto it = mlp_.rbegin(); it != mlp_.rend(); ++it) g = it->backward(g);
  return input_proj_.backward(g);
}

void QNetwork::collect_parameters(std::vector<nn::Parameter*>& out) {
  input_proj_.collect_parameters(out);
  for (auto& block : blocks_) block.collect_parameters(out);
  for (auto& layer : mlp_) layer.collect_parameters(out);
  final_norm_.collect_parameters(out);
  value_head_.collect_parameters(out);
}

std::optional<std::size_t> masked_argmax(const nn::Tensor& q,
                                         const ActionMask& mask) {
  MLCR_CHECK(q.cols() == 1 && mask.size() == q.rows());
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (!mask[i]) continue;
    if (!best || q(i, 0) > q(*best, 0)) best = i;
  }
  return best;
}

std::optional<std::size_t> sole_allowed_action(const ActionMask& mask) {
  std::optional<std::size_t> sole;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (!mask[i]) continue;
    if (sole) return std::nullopt;
    sole = i;
  }
  return sole;
}

}  // namespace mlcr::rl
