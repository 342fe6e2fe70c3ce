// MLCR: the paper's DRL-based multi-level container reuse scheduler
// (Sec. IV). Wraps a trained DqnAgent behind the generic Scheduler interface
// so it can be evaluated side by side with the baselines.
#pragma once

#include <memory>

#include "core/state_encoder.hpp"
#include "policies/baselines.hpp"
#include "rl/dqn.hpp"

namespace mlcr::core {

struct MlcrConfig {
  StateEncoderConfig encoder;
  rl::DqnConfig dqn;
  /// Rewards are -latency / reward_scale (keeps TD targets O(1)).
  float reward_scale_s = 10.0F;
};

/// Default configuration with the network dimensions wired to the encoder.
/// The paper's 512-wide network is scaled to `embed_dim` (default 64) so
/// training converges in seconds on a CPU; see DESIGN.md.
[[nodiscard]] MlcrConfig make_default_mlcr_config(std::size_t num_slots = 24,
                                                  std::size_t embed_dim = 48);

/// Inference-mode MLCR scheduler: encodes the state, asks the DQN for the
/// greedy masked action, and converts it to a sim::Action. Only reads the
/// agent (through its own inference workspace), so schedulers on different
/// threads may share one frozen agent.
class MlcrScheduler final : public policies::Scheduler {
 public:
  MlcrScheduler(std::shared_ptr<rl::DqnAgent> agent, StateEncoder encoder);

  void on_episode_start(const sim::ClusterEnv& env) override;
  [[nodiscard]] sim::Action decide(const sim::ClusterEnv& env,
                                   const sim::Invocation& inv) override;
  [[nodiscard]] std::string name() const override { return "MLCR"; }

  [[nodiscard]] rl::DqnAgent& agent() noexcept { return *agent_; }
  [[nodiscard]] const StateEncoder& encoder() const noexcept {
    return encoder_;
  }

 private:
  std::shared_ptr<rl::DqnAgent> agent_;
  StateEncoder encoder_;
  rl::InferWorkspace ws_;
  double prev_arrival_s_ = 0.0;
  bool has_prev_ = false;
};

/// SystemSpec for MLCR (DQN scheduler + LRU eviction, per the paper).
/// `agent` is shared so a single trained model can back many episodes.
[[nodiscard]] policies::SystemSpec make_mlcr_system(
    std::shared_ptr<rl::DqnAgent> agent, const StateEncoderConfig& encoder);

}  // namespace mlcr::core
