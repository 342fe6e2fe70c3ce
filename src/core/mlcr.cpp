#include "core/mlcr.hpp"

#include "obs/tracer.hpp"
#include "util/check.hpp"

namespace mlcr::core {

namespace {

const rl::DqnAgent& non_null(const std::shared_ptr<rl::DqnAgent>& agent) {
  MLCR_CHECK(agent != nullptr);
  return *agent;
}

}  // namespace

MlcrConfig make_default_mlcr_config(std::size_t num_slots,
                                    std::size_t embed_dim) {
  MlcrConfig c;
  c.encoder.num_slots = num_slots;
  c.dqn.network.feature_dim = c.encoder.feature_dim;
  c.dqn.network.num_slots = num_slots;
  c.dqn.network.embed_dim = embed_dim;
  c.dqn.network.heads = 2;
  c.dqn.network.blocks = 2;
  c.dqn.network.ffn_dim = embed_dim * 2;
  c.dqn.batch_size = 16;
  return c;
}

MlcrScheduler::MlcrScheduler(std::shared_ptr<rl::DqnAgent> agent,
                             StateEncoder encoder)
    : agent_(std::move(agent)),
      encoder_(std::move(encoder)),
      ws_(non_null(agent_).config().network) {
  MLCR_CHECK_MSG(
      agent_->config().network.num_slots == encoder_.config().num_slots &&
          agent_->config().network.feature_dim ==
              encoder_.config().feature_dim,
      "agent network dimensions must match the state encoder");
}

void MlcrScheduler::on_episode_start(const sim::ClusterEnv& env) {
  (void)env;
  has_prev_ = false;
}

sim::Action MlcrScheduler::decide(const sim::ClusterEnv& env,
                                  const sim::Invocation& inv) {
  const double prev = has_prev_ ? prev_arrival_s_ : inv.arrival_s;
  const EncodedState state = encoder_.encode(env, inv, prev);
  prev_arrival_s_ = inv.arrival_s;
  has_prev_ = true;
  const std::size_t action =
      agent_->greedy_action(state.tokens, state.mask, ws_);
  obs::Tracer* tracer = env.tracer();
  if (tracer != nullptr && tracer->enabled()) {
    // Deterministic marker of each forward pass, in simulated time; the
    // bench layer separately wraps decide() in a wall-time span to measure
    // the real inference cost.
    tracer->instant(
        obs::Tracer::kSimPid, env.trace_track(), obs::to_micros(inv.arrival_s),
        "dqn_inference", "rl",
        {obs::narg("action", static_cast<std::int64_t>(action)),
         obs::narg("seq", static_cast<std::int64_t>(inv.seq))});
  }
  return encoder_.to_sim_action(state, action);
}

policies::SystemSpec make_mlcr_system(std::shared_ptr<rl::DqnAgent> agent,
                                      const StateEncoderConfig& encoder) {
  return policies::SystemSpec{
      "MLCR",
      std::make_unique<MlcrScheduler>(std::move(agent), StateEncoder(encoder)),
      [] { return std::make_unique<containers::LruEviction>(); },
      std::nullopt};
}

}  // namespace mlcr::core
