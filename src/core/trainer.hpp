// Offline training loop for the MLCR DQN (paper Algorithm 1): invocations
// are repeatedly scheduled with epsilon-greedy actions, experiences go to the
// replay pool, and the network is updated by sampled batches. Supports
// cycling over multiple traces and multiple environments (e.g. different
// pool capacities) so one model generalizes across configurations.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/mlcr.hpp"

namespace mlcr::obs {
class Tracer;
}

namespace mlcr::core {

/// The loop's fixed schedule: epsilon anneals from 1.0 to 0.02 over the
/// first 60% of the planned environment steps; two episodes of the
/// multi-level greedy policy seed the replay buffer first (the paper's
/// "prior knowledge" rationale for the action mask, Sec. IV-C: early
/// Q-targets anchor to a sane policy instead of uniform exploration); and
/// every third episode the greedy policy is scored on each environment's
/// first trace, normalized by that environment's multi-level-greedy
/// latency, with the best-scoring weights restored when training ends.
struct TrainerConfig {
  std::size_t episodes = 30;
  /// Run a gradient step every `train_every` environment steps.
  std::size_t train_every = 4;
  std::uint64_t seed = 42;
  /// Optional per-episode callback(episode, total_startup_latency_s).
  std::function<void(std::size_t, double)> on_episode_end;
  /// Optional tracer (not owned): training telemetry goes to the
  /// obs::Tracer::kTrainPid tracks — episode spans, epsilon and validation
  /// on the environment-step track (tid 0, ts = env-step index) and, via
  /// the agent, loss/replay/staleness on the gradient-step track (tid 1,
  /// ts = train-step index). Purely step-indexed, so traces stay
  /// deterministic.
  obs::Tracer* tracer = nullptr;
};

struct TrainerReport {
  std::vector<double> episode_total_latency_s;
  std::size_t env_steps = 0;
  std::size_t train_steps = 0;
  /// Mean loss over the last quarter of training (0 if no training ran).
  double late_loss = 0.0;
  /// Validation scores (summed normalized latency across envs), one per
  /// validation.
  std::vector<double> validation_latency_s;
  /// Which validation produced the restored checkpoint (npos if training
  /// ended before the first validation).
  std::size_t best_validation = SIZE_MAX;
};

/// Train `agent` in-place. `envs` and `traces` are cycled per episode
/// (episode i uses envs[i % envs.size()] and traces[i % traces.size()]).
TrainerReport train_agent(rl::DqnAgent& agent, const StateEncoder& encoder,
                          float reward_scale_s,
                          const std::vector<sim::ClusterEnv*>& envs,
                          const std::vector<const sim::Trace*>& traces,
                          const TrainerConfig& config);

/// Load the agent from `path` if a compatible file exists; otherwise run
/// `train` (which must train the agent) and save to `path`. Returns true if
/// the model was loaded from cache.
bool load_or_train(rl::DqnAgent& agent, const std::string& path,
                   const std::function<void()>& train);

}  // namespace mlcr::core
