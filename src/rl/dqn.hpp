// DQN agent (paper Sec. IV-B and Algorithm 1): epsilon-greedy behaviour
// policy over the masked action set, experience replay, a periodically
// synchronized target network, Huber TD loss, and double-DQN targets (the
// online network picks the next action, the target network values it).
#pragma once

#include <memory>
#include <string>

#include "nn/optimizer.hpp"
#include "rl/qnetwork.hpp"
#include "rl/replay_buffer.hpp"

namespace mlcr::obs {
class Tracer;
}

namespace mlcr::rl {

struct DqnConfig {
  QNetworkConfig network;
  float learning_rate = 1e-3F;
  float gamma = 0.95F;  ///< discount over invocation steps
  std::size_t replay_capacity = 20'000;
  std::size_t batch_size = 32;
  /// Minimum stored transitions before training starts.
  std::size_t min_replay = 256;
  /// Hard target-network sync period, in train steps.
  std::size_t target_sync_every = 200;
  float grad_clip = 5.0F;
  float huber_delta = 1.0F;
};

class DqnAgent {
 public:
  DqnAgent(DqnConfig config, util::Rng init_rng);

  /// Epsilon-greedy action over allowed entries of `mask`. Requires at least
  /// one allowed action (cold start is always allowed in MLCR states).
  [[nodiscard]] std::size_t select_action(const nn::Tensor& state,
                                          const ActionMask& mask,
                                          float epsilon, util::Rng& rng);

  /// Greedy (evaluation) action, computed in `ws`. Const: threads sharing
  /// one agent each pass their own workspace.
  [[nodiscard]] std::size_t greedy_action(const nn::Tensor& state,
                                          const ActionMask& mask,
                                          InferWorkspace& ws) const;
  /// As above, in a workspace allocated for the call.
  [[nodiscard]] std::size_t greedy_action(const nn::Tensor& state,
                                          const ActionMask& mask) const;

  /// Raw Q-values for a state (online network).
  [[nodiscard]] nn::Tensor q_values(const nn::Tensor& state) const;

  /// q_values() for each state, through one workspace.
  [[nodiscard]] std::vector<nn::Tensor> q_values_batch(
      const std::vector<const nn::Tensor*>& states) const;

  /// greedy_action() over parallel state/mask arrays, through one
  /// workspace.
  [[nodiscard]] std::vector<std::size_t> greedy_actions(
      const std::vector<const nn::Tensor*>& states,
      const std::vector<const ActionMask*>& masks) const;

  void observe(Transition transition) { replay_.push(std::move(transition)); }

  /// One gradient step on a sampled batch; returns the mean Huber loss, or
  /// nullopt when the replay buffer has fewer than min_replay transitions.
  /// Throws util::CheckError, before any weight moves, when the batch loss
  /// or the gradient norm is not finite.
  std::optional<float> train_step(util::Rng& rng);

  [[nodiscard]] const DqnConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t train_steps() const noexcept {
    return train_steps_;
  }
  [[nodiscard]] const ReplayBuffer& replay() const noexcept { return replay_; }

  void save(const std::string& path);
  void load(const std::string& path);

  /// Attach a tracer: every successful train_step() emits loss / replay
  /// occupancy / target-staleness counters on the gradient-step track
  /// (obs::Tracer::kTrainPid, tid 1), timestamped by the train-step index —
  /// deterministic, no clock involved. nullptr detaches; not owned.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

  /// Snapshot / restore the online network's weights (used by the trainer's
  /// validation-based checkpoint selection). restore also syncs the target.
  [[nodiscard]] std::vector<nn::Tensor> snapshot_weights();
  void restore_weights(const std::vector<nn::Tensor>& weights);

 private:
  DqnConfig config_;
  QNetwork online_;
  QNetwork target_;
  nn::Adam optimizer_;
  ReplayBuffer replay_;
  /// For the agent's own inference: select_action() and train_step().
  InferWorkspace infer_ws_;
  std::size_t train_steps_ = 0;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace mlcr::rl
