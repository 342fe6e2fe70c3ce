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
      value_head_(config.embed_dim, 1, rng) {
  MLCR_CHECK(config_.feature_dim > 0 && config_.num_slots > 0);
  MLCR_CHECK(config_.embed_dim > 0 && config_.blocks > 0);
  if (config_.use_attention) {
    for (std::size_t i = 0; i < config_.blocks; ++i)
      blocks_.push_back(std::make_unique<nn::TransformerBlock>(
          config_.embed_dim, config_.heads, config_.ffn_dim, rng));
  } else {
    // Ablation: per-token MLP of matching depth, no cross-token mixing.
    for (std::size_t i = 0; i < config_.blocks; ++i)
      mlp_.push_back(std::make_unique<nn::FeedForward>(config_.embed_dim,
                                                       config_.ffn_dim, rng));
  }
}

void QNetwork::check_tokens(const nn::Tensor& tokens) const {
  MLCR_CHECK_MSG(tokens.rows() == num_tokens() &&
                     tokens.cols() == config_.feature_dim,
                 "expected tokens " << num_tokens() << "x"
                                    << config_.feature_dim << ", got "
                                    << tokens.rows() << "x" << tokens.cols());
}

nn::Tensor QNetwork::forward(const nn::Tensor& tokens) {
  check_tokens(tokens);
  cached_tokens_ = tokens.rows();
  nn::Tensor h = input_proj_.forward(tokens);
  if (config_.use_attention) {
    for (const auto& block : blocks_) h = block->forward(h);
  } else {
    for (const auto& layer : mlp_) h = layer->forward(h);
  }
  h = final_norm_.forward(h);
  const nn::Tensor values = value_head_.forward(h);  // (T x 1)

  nn::Tensor q(num_actions(), 1);
  for (std::size_t slot = 0; slot < config_.num_slots; ++slot)
    q(slot, 0) = values(kFirstSlotTokenRow + slot, 0);
  q(config_.num_slots, 0) = values(kFunctionTokenRow, 0);  // cold start
  return q;
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
  infer_rows(tokens, live, ws);
  MLCR_AUDIT_POINT({
    InferWorkspace every_row(config_);
    infer_rows(tokens, num_tokens(), every_row);
    MLCR_CHECK_MSG(std::memcmp(every_row.q.data(), ws.q.data(),
                               ws.q.size() * sizeof(float)) == 0,
                   "Q-values over the distinct rows differ from those over "
                   "every row");
  });
  return ws.q;
}

void QNetwork::infer_rows(const nn::Tensor& tokens, std::size_t live,
                          InferWorkspace& ws) const {
  input_proj_.infer(tokens, live, ws.h);
  if (config_.use_attention) {
    for (const auto& block : blocks_) block->infer(ws.h, live, ws.block);
  } else {
    for (const auto& layer : mlp_) {
      layer->infer(ws.h, live, ws.block.hidden, ws.block.out);
      std::swap(ws.h, ws.block.out);
    }
  }
  final_norm_.infer(ws.h, live, ws.block.norm);
  value_head_.infer(ws.block.norm, live, ws.values);
  const auto value = [&](std::size_t row) {
    return ws.values(std::min(row, live - 1), 0);
  };
  for (std::size_t slot = 0; slot < config_.num_slots; ++slot)
    ws.q(slot, 0) = value(kFirstSlotTokenRow + slot);
  ws.q(config_.num_slots, 0) = value(kFunctionTokenRow);  // cold start
}

nn::Tensor QNetwork::backward(const nn::Tensor& grad_q) {
  MLCR_CHECK(grad_q.rows() == num_actions() && grad_q.cols() == 1);
  nn::Tensor grad_values(cached_tokens_, 1);
  for (std::size_t slot = 0; slot < config_.num_slots; ++slot)
    grad_values(kFirstSlotTokenRow + slot, 0) = grad_q(slot, 0);
  grad_values(kFunctionTokenRow, 0) = grad_q(config_.num_slots, 0);

  nn::Tensor g = value_head_.backward(grad_values);
  g = final_norm_.backward(g);
  if (config_.use_attention) {
    for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it)
      g = (*it)->backward(g);
  } else {
    for (auto it = mlp_.rbegin(); it != mlp_.rend(); ++it)
      g = (*it)->backward(g);
  }
  return input_proj_.backward(g);
}

void QNetwork::collect_parameters(std::vector<nn::Parameter*>& out) {
  input_proj_.collect_parameters(out);
  for (const auto& block : blocks_) block->collect_parameters(out);
  for (const auto& layer : mlp_) layer->collect_parameters(out);
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
