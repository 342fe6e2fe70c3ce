#include "core/online.hpp"

#include "util/check.hpp"

namespace mlcr::core {

OnlineMlcrScheduler::OnlineMlcrScheduler(std::shared_ptr<rl::DqnAgent> agent,
                                         StateEncoder encoder,
                                         float reward_scale_s,
                                         OnlineConfig config)
    : agent_(std::move(agent)),
      encoder_(std::move(encoder)),
      reward_scale_s_(reward_scale_s),
      config_(config),
      rng_(config.seed) {
  MLCR_CHECK(agent_ != nullptr);
  MLCR_CHECK(reward_scale_s_ > 0.0F);
  MLCR_CHECK(config_.epsilon >= 0.0F && config_.epsilon <= 1.0F);
  MLCR_CHECK_MSG(
      agent_->config().network.num_slots == encoder_.config().num_slots,
      "agent network dimensions must match the state encoder");
}

void OnlineMlcrScheduler::flush_pending(const EncodedState* next) {
  if (!pending_ || !pending_->rewarded) {
    pending_.reset();
    return;
  }
  rl::Transition t;
  t.state = std::move(pending_->state);
  t.action = pending_->action;
  t.reward = pending_->reward;
  if (next != nullptr) {
    t.next_state = next->tokens;
    t.next_mask = next->mask;
    t.terminal = false;
  } else {
    t.next_state = nn::Tensor(encoder_.num_tokens(),
                              encoder_.config().feature_dim);
    t.next_mask.assign(encoder_.num_actions(), 0);
    t.terminal = true;
  }
  agent_->observe(std::move(t));
  pending_.reset();

  if (config_.train_every != 0 && decisions_ % config_.train_every == 0)
    if (agent_->train_step(rng_).has_value()) ++online_train_steps_;
}

void OnlineMlcrScheduler::on_episode_start(const sim::ClusterEnv& env) {
  (void)env;
  // The previous episode's final transition has no successor state.
  flush_pending(nullptr);
  has_prev_ = false;
}

sim::Action OnlineMlcrScheduler::decide(const sim::ClusterEnv& env,
                                        const sim::Invocation& inv) {
  const double prev = has_prev_ ? prev_arrival_s_ : inv.arrival_s;
  EncodedState state = encoder_.encode(env, inv, prev);
  prev_arrival_s_ = inv.arrival_s;
  has_prev_ = true;

  flush_pending(&state);

  ++decisions_;
  const std::size_t action = agent_->select_action(
      state.tokens, state.mask, config_.epsilon, rng_);
  const sim::Action sim_action = encoder_.to_sim_action(state, action);
  pending_ = Pending{std::move(state.tokens), action, 0.0F, false};
  return sim_action;
}

void OnlineMlcrScheduler::on_step_result(const sim::ClusterEnv& env,
                                         const sim::StepResult& result) {
  (void)env;
  if (!pending_) return;
  pending_->reward = static_cast<float>(-result.latency_s) / reward_scale_s_;
  pending_->rewarded = true;
}

policies::SystemSpec make_online_mlcr_system(
    std::shared_ptr<rl::DqnAgent> agent, const StateEncoderConfig& encoder,
    float reward_scale_s, OnlineConfig config) {
  return policies::SystemSpec{
      "MLCR-online",
      std::make_unique<OnlineMlcrScheduler>(std::move(agent),
                                            StateEncoder(encoder),
                                            reward_scale_s, config),
      [] { return std::make_unique<containers::LruEviction>(); },
      std::nullopt};
}

}  // namespace mlcr::core
