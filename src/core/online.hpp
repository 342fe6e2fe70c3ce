// Online fine-tuning (paper Sec. VI-C/D): in addition to offline training,
// the deployed MLCR scheduler can keep adjusting its parameters from live
// feedback. This scheduler behaves like MlcrScheduler but runs a small
// epsilon of exploration, records transitions as episodes unfold, and takes
// a gradient step every few decisions — lightweight enough not to disturb
// the serving path (see bench/overhead_inference).
#pragma once

#include <memory>
#include <optional>

#include "core/mlcr.hpp"

namespace mlcr::core {

struct OnlineConfig {
  /// Exploration rate while deployed (small: serving quality matters).
  float epsilon = 0.02F;
  /// Gradient step every `train_every` scheduling decisions; 0 disables
  /// learning (pure inference, equivalent to MlcrScheduler).
  std::size_t train_every = 8;
  std::uint64_t seed = 1234;
};

class OnlineMlcrScheduler final : public policies::Scheduler {
 public:
  OnlineMlcrScheduler(std::shared_ptr<rl::DqnAgent> agent,
                      StateEncoder encoder, float reward_scale_s,
                      OnlineConfig config = {});

  void on_episode_start(const sim::ClusterEnv& env) override;
  [[nodiscard]] sim::Action decide(const sim::ClusterEnv& env,
                                   const sim::Invocation& inv) override;
  void on_step_result(const sim::ClusterEnv& env,
                      const sim::StepResult& result) override;
  [[nodiscard]] std::string name() const override { return "MLCR-online"; }

  [[nodiscard]] std::size_t online_train_steps() const noexcept {
    return online_train_steps_;
  }

 private:
  /// Complete the pending transition (if any) with `next`; a null next means
  /// the episode ended (terminal transition).
  void flush_pending(const EncodedState* next);

  std::shared_ptr<rl::DqnAgent> agent_;
  StateEncoder encoder_;
  float reward_scale_s_;
  OnlineConfig config_;
  util::Rng rng_;

  struct Pending {
    nn::Tensor state;
    std::size_t action = 0;
    float reward = 0.0F;
    bool rewarded = false;
  };
  std::optional<Pending> pending_;
  double prev_arrival_s_ = 0.0;
  bool has_prev_ = false;
  std::size_t decisions_ = 0;
  std::size_t online_train_steps_ = 0;
};

/// SystemSpec for online-fine-tuned MLCR.
[[nodiscard]] policies::SystemSpec make_online_mlcr_system(
    std::shared_ptr<rl::DqnAgent> agent, const StateEncoderConfig& encoder,
    float reward_scale_s, OnlineConfig config = {});

}  // namespace mlcr::core
