#include "rl/dqn.hpp"

#include <cmath>

#include "nn/serialize.hpp"
#include "obs/tracer.hpp"
#include "util/check.hpp"

namespace mlcr::rl {

DqnAgent::DqnAgent(DqnConfig config, util::Rng init_rng)
    : config_(config),
      online_(config.network, init_rng),
      target_(config.network, init_rng),
      optimizer_(online_.parameters(), config.learning_rate),
      replay_(config.replay_capacity),
      infer_ws_(config.network) {
  nn::copy_parameters(online_, target_);
}

std::size_t DqnAgent::select_action(const nn::Tensor& state,
                                    const ActionMask& mask, float epsilon,
                                    util::Rng& rng) {
  MLCR_CHECK(mask.size() == online_.num_actions());
  if (rng.uniform() < epsilon) {
    // Uniform over allowed actions only: masking applies to exploration too
    // (paper Sec. IV-C — no purposeless exploration of no-match actions).
    std::vector<std::size_t> allowed;
    for (std::size_t i = 0; i < mask.size(); ++i)
      if (mask[i]) allowed.push_back(i);
    MLCR_CHECK_MSG(!allowed.empty(), "no allowed action in mask");
    return allowed[rng.uniform_index(allowed.size())];
  }
  return greedy_action(state, mask, infer_ws_);
}

std::size_t DqnAgent::greedy_action(const nn::Tensor& state,
                                    const ActionMask& mask,
                                    InferWorkspace& ws) const {
  const auto best = online_pick(state, mask, ws);
  MLCR_CHECK_MSG(best.has_value(), "no allowed action in mask");
  return *best;
}

std::optional<std::size_t> DqnAgent::online_pick(const nn::Tensor& state,
                                                 const ActionMask& mask,
                                                 InferWorkspace& ws) const {
  MLCR_CHECK(mask.size() == online_.num_actions());
  // A single-action mask decides without the forward pass; the state must
  // still be one the network takes.
  if (const auto sole = sole_allowed_action(mask)) {
    online_.check_tokens(state);
    return sole;
  }
  return masked_argmax(online_.infer(state, ws), mask);
}

nn::Tensor DqnAgent::q_values(const nn::Tensor& state) const {
  InferWorkspace ws(config_.network);
  return online_.infer(state, ws);
}

std::vector<nn::Tensor> DqnAgent::q_values_batch(
    const std::vector<const nn::Tensor*>& states) const {
  InferWorkspace ws(config_.network);
  std::vector<nn::Tensor> out;
  out.reserve(states.size());
  for (const nn::Tensor* state : states)
    out.push_back(online_.infer(*state, ws));
  return out;
}

std::vector<std::size_t> DqnAgent::greedy_actions(
    const std::vector<const nn::Tensor*>& states,
    const std::vector<const ActionMask*>& masks) const {
  MLCR_CHECK(states.size() == masks.size());
  InferWorkspace ws(config_.network);
  std::vector<std::size_t> actions;
  actions.reserve(states.size());
  for (std::size_t i = 0; i < states.size(); ++i)
    actions.push_back(greedy_action(*states[i], *masks[i], ws));
  return actions;
}

std::optional<float> DqnAgent::train_step(util::Rng& rng) {
  if (replay_.size() < config_.min_replay) return std::nullopt;

  const auto batch = replay_.sample(config_.batch_size, rng);
  online_.zero_grad();

  // Bootstrap targets from the frozen networks, before any backward pass.
  // An empty next mask (or terminal flag) means no bootstrapping.
  std::vector<float> targets(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Transition* t = batch[i];
    targets[i] = t->reward;
    if (t->terminal) continue;
    // The online network picks a*, the target network values it.
    const auto a_star = online_pick(t->next_state, t->next_mask, infer_ws_);
    if (a_star)
      targets[i] +=
          config_.gamma * target_.infer(t->next_state, infer_ws_)(*a_star, 0);
  }

  float total_loss = 0.0F;
  const float inv_batch = 1.0F / static_cast<float>(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Transition* t = batch[i];
    const float target_value = targets[i];
    const nn::Tensor q = online_.forward(t->state);
    MLCR_CHECK(t->action < q.rows());
    const float td = q(t->action, 0) - target_value;

    // Huber loss and its derivative w.r.t. q[a].
    const float delta = config_.huber_delta;
    float loss, dloss;
    if (std::abs(td) <= delta) {
      loss = 0.5F * td * td;
      dloss = td;
    } else {
      loss = delta * (std::abs(td) - 0.5F * delta);
      dloss = td > 0.0F ? delta : -delta;
    }
    total_loss += loss;

    nn::Tensor grad_q(q.rows(), 1);
    grad_q(t->action, 0) = dloss * inv_batch;
    (void)online_.backward(grad_q);
  }

  // Fail here, before the update, so a NaN never reaches the weights.
  const float mean_loss = total_loss * inv_batch;
  const float grad_norm = optimizer_.clip_grad_norm(config_.grad_clip);
  MLCR_CHECK_MSG(std::isfinite(mean_loss) && std::isfinite(grad_norm),
                 "DQN train step " << train_steps_ + 1
                                   << ": non-finite batch loss " << mean_loss
                                   << " or gradient norm " << grad_norm);
  optimizer_.step();

  ++train_steps_;
  const bool synced = train_steps_ % config_.target_sync_every == 0;
  if (synced) nn::copy_parameters(online_, target_);

  if (tracer_ != nullptr && tracer_->enabled()) {
    // The gradient-step track: 1 train step = 1 "microsecond".
    const auto ts = static_cast<obs::Micros>(train_steps_);
    const std::uint32_t pid = obs::Tracer::kTrainPid;
    tracer_->counter(pid, 1, ts, "loss", static_cast<double>(mean_loss));
    tracer_->counter(pid, 1, ts, "replay_occupancy",
                     static_cast<double>(replay_.size()));
    tracer_->counter(pid, 1, ts, "target_staleness",
                     static_cast<double>(train_steps_ %
                                         config_.target_sync_every));
    if (synced) tracer_->instant(pid, 1, ts, "target_sync", "train");
  }
  return mean_loss;
}

void DqnAgent::save(const std::string& path) {
  nn::save_parameters(online_, path);
}

void DqnAgent::load(const std::string& path) {
  nn::load_parameters(online_, path);
  nn::copy_parameters(online_, target_);
}

std::vector<nn::Tensor> DqnAgent::snapshot_weights() {
  std::vector<nn::Tensor> out;
  for (const nn::Parameter* p : online_.parameters())
    out.push_back(p->value);
  return out;
}

void DqnAgent::restore_weights(const std::vector<nn::Tensor>& weights) {
  const auto params = online_.parameters();
  MLCR_CHECK(weights.size() == params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    MLCR_CHECK(weights[i].same_shape(params[i]->value));
    params[i]->value = weights[i];
  }
  nn::copy_parameters(online_, target_);
}

}  // namespace mlcr::rl
