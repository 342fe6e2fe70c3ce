#include "core/trainer.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>

#include "obs/tracer.hpp"
#include "rl/schedule.hpp"
#include "util/check.hpp"

namespace mlcr::core {

namespace {

constexpr float kEpsilonStart = 1.0F;
constexpr float kEpsilonEnd = 0.02F;
constexpr std::size_t kGreedyWarmupEpisodes = 2;
constexpr std::size_t kValidateEvery = 3;

/// The multi-level greedy policy expressed in action-index space: the state
/// encoder orders slots by (match level desc, recency desc), so greedy is
/// "slot 0 if it is reusable, else cold".
[[nodiscard]] std::size_t greedy_action_index(const EncodedState& state,
                                              const StateEncoder& encoder) {
  if (!state.mask.empty() && state.mask[0]) return 0;
  return encoder.config().num_slots;  // cold
}

using ActFn = std::function<std::size_t(const EncodedState&)>;
using ObserveFn = std::function<void(rl::Transition)>;

/// Roll one episode of `trace` on `env`, each action index picked by
/// `act(state)`, and return its total startup latency. With `observe`,
/// every step also becomes a transition (reward -latency / reward_scale_s;
/// after the last step a terminal all-zero next state with an all-false
/// mask) handed to `observe` before the next action is picked.
double rollout(const StateEncoder& encoder, float reward_scale_s,
               sim::ClusterEnv& env, const sim::Trace& trace,
               const ActFn& act, const ObserveFn& observe = nullptr) {
  env.reset(trace);
  // The first arrival has no predecessor: its inter-arrival gap is zero.
  double prev_arrival = env.done() ? 0.0 : env.current().arrival_s;
  while (!env.done()) {
    const sim::Invocation inv = env.current();
    EncodedState state = encoder.encode(env, inv, prev_arrival);
    prev_arrival = inv.arrival_s;
    const std::size_t action = act(state);
    const sim::StepResult result =
        env.step(encoder.to_sim_action(state, action));
    if (!observe) continue;

    rl::Transition t;
    t.state = std::move(state.tokens);
    t.action = action;
    t.reward = static_cast<float>(-result.latency_s) / reward_scale_s;
    if (env.done()) {
      t.terminal = true;
      t.next_state =
          nn::Tensor(encoder.num_tokens(), encoder.config().feature_dim);
      t.next_mask.assign(encoder.num_actions(), 0);
    } else {
      EncodedState next = encoder.encode(env, env.current(), prev_arrival);
      t.next_state = std::move(next.tokens);
      t.next_mask = std::move(next.mask);
    }
    observe(std::move(t));
  }
  return env.metrics().total_latency_s();
}

}  // namespace

TrainerReport train_agent(rl::DqnAgent& agent, const StateEncoder& encoder,
                          float reward_scale_s,
                          const std::vector<sim::ClusterEnv*>& envs,
                          const std::vector<const sim::Trace*>& traces,
                          const TrainerConfig& config) {
  MLCR_CHECK(!envs.empty() && !traces.empty());
  MLCR_CHECK(reward_scale_s > 0.0F);
  MLCR_CHECK(config.train_every > 0);

  std::size_t planned_steps = 0;
  for (std::size_t ep = 0; ep < config.episodes; ++ep)
    planned_steps += traces[ep % traces.size()]->size();
  const rl::LinearEpsilon epsilon(kEpsilonStart, kEpsilonEnd,
                                  planned_steps * 3 / 5);
  const std::size_t late_start = planned_steps * 3 / 4;

  obs::Tracer* tracer = config.tracer;
  const bool traced = tracer != nullptr && tracer->enabled();
  agent.set_tracer(tracer);
  // Detached on every exit: train_step throws on a non-finite loss, and the
  // caller's tracer may not outlive the agent.
  const std::unique_ptr<rl::DqnAgent, void (*)(rl::DqnAgent*)> detach(
      &agent, [](rl::DqnAgent* a) { a->set_tracer(nullptr); });
  if (traced) {
    tracer->thread_name(obs::Tracer::kTrainPid, 0, "env-steps");
    tracer->thread_name(obs::Tracer::kTrainPid, 1, "gradient-steps");
  }

  // Demonstration seeding, then the validation baselines: multi-level
  // greedy episodes.
  const ActFn greedy = [&encoder](const EncodedState& state) {
    return greedy_action_index(state, encoder);
  };
  const ObserveFn store = [&agent](rl::Transition t) {
    agent.observe(std::move(t));
  };
  for (std::size_t ep = 0; ep < kGreedyWarmupEpisodes; ++ep)
    (void)rollout(encoder, reward_scale_s, *envs[ep % envs.size()],
                  *traces[ep % traces.size()], greedy, store);
  std::vector<double> baselines;
  for (sim::ClusterEnv* env : envs)
    baselines.push_back(std::max(
        1e-9, rollout(encoder, reward_scale_s, *env, *traces[0], greedy)));

  // Validation: the current network's greedy policy on each environment's
  // first trace, its latency normalized by that environment's greedy
  // baseline and summed, so tight pools (whose absolute latencies are
  // several times larger) do not dominate checkpoint selection.
  rl::InferWorkspace ws(agent.config().network);
  const ActFn greedy_dqn = [&agent, &ws](const EncodedState& state) {
    return agent.greedy_action(state.tokens, state.mask, ws);
  };
  TrainerReport report;
  std::vector<nn::Tensor> best_weights;
  double best_score = std::numeric_limits<double>::infinity();
  double loss_sum = 0.0;
  std::size_t loss_count = 0;

  // One RNG stream: each step draws select_action, then any train_step.
  util::Rng rng(config.seed);
  const ActFn explore = [&](const EncodedState& state) {
    const float eps = epsilon.value(report.env_steps);
    if (traced && report.env_steps % config.train_every == 0)
      tracer->counter(obs::Tracer::kTrainPid, 0,
                      static_cast<obs::Micros>(report.env_steps), "epsilon",
                      static_cast<double>(eps));
    return agent.select_action(state.tokens, state.mask, eps, rng);
  };
  const ObserveFn learn = [&](rl::Transition t) {
    agent.observe(std::move(t));
    ++report.env_steps;
    if (report.env_steps % config.train_every != 0) return;
    if (const auto loss = agent.train_step(rng)) {
      ++report.train_steps;
      if (report.env_steps >= late_start) {
        loss_sum += *loss;
        ++loss_count;
      }
    }
  };

  for (std::size_t ep = 0; ep < config.episodes; ++ep) {
    const std::size_t episode_start = report.env_steps;
    const double latency =
        rollout(encoder, reward_scale_s, *envs[ep % envs.size()],
                *traces[ep % traces.size()], explore, learn);
    report.episode_total_latency_s.push_back(latency);
    if (traced)
      tracer->span(obs::Tracer::kTrainPid, 0,
                   static_cast<obs::Micros>(episode_start),
                   static_cast<obs::Micros>(report.env_steps - episode_start),
                   "episode", "train",
                   {obs::narg("episode", static_cast<std::int64_t>(ep)),
                    obs::narg("total_latency_s", latency)});
    if (config.on_episode_end) config.on_episode_end(ep, latency);

    if ((ep + 1) % kValidateEvery != 0) continue;
    double score = 0.0;
    for (std::size_t e = 0; e < envs.size(); ++e)
      score += rollout(encoder, reward_scale_s, *envs[e], *traces[0],
                       greedy_dqn) /
               baselines[e];
    const bool improved = score < best_score;
    if (improved) {
      best_score = score;
      best_weights = agent.snapshot_weights();
      report.best_validation = report.validation_latency_s.size();
    }
    report.validation_latency_s.push_back(score);
    if (traced)
      tracer->instant(
          obs::Tracer::kTrainPid, 0, static_cast<obs::Micros>(report.env_steps),
          "validation", "train",
          {obs::narg("score", score),
           obs::narg("best", static_cast<std::int64_t>(improved ? 1 : 0))});
  }

  if (!best_weights.empty()) agent.restore_weights(best_weights);
  if (loss_count > 0)
    report.late_loss = loss_sum / static_cast<double>(loss_count);
  return report;
}

bool load_or_train(rl::DqnAgent& agent, const std::string& path,
                   const std::function<void()>& train) {
  if (std::filesystem::exists(path)) {
    // A failed load has already overwritten some weights, so training on
    // from here would start from garbage: fail, and leave the file alone.
    try {
      agent.load(path);
    } catch (const util::CheckError& e) {
      throw util::CheckError("model cache '" + path +
                             "' does not load (delete it to retrain): " +
                             e.what());
    }
    return true;
  }
  train();
  agent.save(path);
  return false;
}

}  // namespace mlcr::core
