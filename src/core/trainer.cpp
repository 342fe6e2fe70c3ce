#include "core/trainer.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>

#include "obs/tracer.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace mlcr::core {

namespace {

/// The multi-level greedy policy expressed in action-index space: the state
/// encoder orders slots by (match level desc, recency desc), so greedy is
/// "slot 0 if it is reusable, else cold".
[[nodiscard]] std::size_t greedy_action_index(const EncodedState& state,
                                              const StateEncoder& encoder) {
  if (!state.mask.empty() && state.mask[0]) return 0;
  return encoder.config().num_slots;  // cold
}

/// Run greedy episodes, feeding transitions into the agent's replay buffer.
void seed_replay_with_greedy(rl::DqnAgent& agent, const StateEncoder& encoder,
                             float reward_scale_s, sim::ClusterEnv& env,
                             const sim::Trace& trace) {
  env.reset(trace);
  double prev_arrival = 0.0;
  bool has_prev = false;
  while (!env.done()) {
    const sim::Invocation inv = env.current();
    const double prev = has_prev ? prev_arrival : inv.arrival_s;
    EncodedState state = encoder.encode(env, inv, prev);
    prev_arrival = inv.arrival_s;
    has_prev = true;
    const std::size_t action = greedy_action_index(state, encoder);
    const sim::StepResult result =
        env.step(encoder.to_sim_action(state, action));

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
    agent.observe(std::move(t));
  }
}

/// Total latency of one multi-level-greedy episode (baseline for
/// normalizing validation scores across environments).
[[nodiscard]] double greedy_episode_latency(const StateEncoder& encoder,
                                            sim::ClusterEnv& env,
                                            const sim::Trace& trace) {
  env.reset(trace);
  while (!env.done()) {
    const EncodedState state = encoder.encode(env, env.current(), 0.0);
    (void)env.step(
        encoder.to_sim_action(state, greedy_action_index(state, encoder)));
  }
  return env.metrics().total_latency_s();
}

/// Greedy-policy evaluation of the current network: per-environment total
/// startup latency normalized by that environment's multi-level-greedy
/// baseline, summed. Normalization keeps tight pools (whose absolute
/// latencies are several times larger) from dominating checkpoint selection.
[[nodiscard]] double validate(rl::DqnAgent& agent, const StateEncoder& encoder,
                              const std::vector<sim::ClusterEnv*>& envs,
                              const sim::Trace& trace,
                              const std::vector<double>& baselines) {
  rl::InferWorkspace ws(agent.config().network);
  double total = 0.0;
  for (std::size_t e = 0; e < envs.size(); ++e) {
    sim::ClusterEnv& env = *envs[e];
    env.reset(trace);
    double prev_arrival = 0.0;
    bool has_prev = false;
    while (!env.done()) {
      const sim::Invocation inv = env.current();
      const double prev = has_prev ? prev_arrival : inv.arrival_s;
      const EncodedState state = encoder.encode(env, inv, prev);
      prev_arrival = inv.arrival_s;
      has_prev = true;
      const std::size_t action =
          agent.greedy_action(state.tokens, state.mask, ws);
      (void)env.step(encoder.to_sim_action(state, action));
    }
    total += env.metrics().total_latency_s() / baselines[e];
  }
  return total;
}

/// Fresh environment configured identically to `src`. Round collection rolls
/// episodes out on clones so parallel workers never share mutable state (and
/// the serial round path uses the same clones, keeping worker count a pure
/// throughput knob).
[[nodiscard]] std::unique_ptr<sim::ClusterEnv> clone_env(
    const sim::ClusterEnv& src) {
  return std::make_unique<sim::ClusterEnv>(src.functions(), src.catalog(),
                                           src.cost_model(), src.config(),
                                           src.eviction_factory());
}

/// One whole rolled-out episode, ready for the sequential merge.
struct CollectedEpisode {
  std::vector<rl::Transition> transitions;
  double total_latency_s = 0.0;
};

/// Roll one episode against a frozen policy network, read only through this
/// episode's own inference workspace. Epsilon anneals by the planned serial
/// step index (`planned_start + s`), not by a live global counter, so the
/// schedule each step sees is independent of how episodes are batched into
/// rounds or scheduled onto workers. Action selection mirrors
/// DqnAgent::select_action on `rng`, a stream owned by this episode.
[[nodiscard]] CollectedEpisode collect_episode(
    const rl::QNetwork& policy, const StateEncoder& encoder,
    float reward_scale_s, sim::ClusterEnv& env, const sim::Trace& trace,
    const rl::LinearEpsilon& epsilon, std::size_t planned_start,
    util::Rng rng) {
  rl::InferWorkspace ws(policy.config());
  CollectedEpisode out;
  out.transitions.reserve(trace.size());
  env.reset(trace);
  double prev_arrival = 0.0;
  bool has_prev = false;
  std::size_t s = 0;
  while (!env.done()) {
    const sim::Invocation inv = env.current();
    const double prev = has_prev ? prev_arrival : inv.arrival_s;
    EncodedState state = encoder.encode(env, inv, prev);
    prev_arrival = inv.arrival_s;
    has_prev = true;

    const float eps = epsilon.value(planned_start + s);
    std::size_t action;
    if (rng.uniform() < eps) {
      // Uniform over allowed actions only, as in DqnAgent::select_action.
      std::vector<std::size_t> allowed;
      for (std::size_t i = 0; i < state.mask.size(); ++i)
        if (state.mask[i]) allowed.push_back(i);
      MLCR_CHECK_MSG(!allowed.empty(), "no allowed action in mask");
      action = allowed[rng.uniform_index(allowed.size())];
    } else {
      const auto best =
          rl::masked_argmax(policy.infer(state.tokens, ws), state.mask);
      MLCR_CHECK_MSG(best.has_value(), "no allowed action in mask");
      action = *best;
    }
    const sim::StepResult result =
        env.step(encoder.to_sim_action(state, action));

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
    out.transitions.push_back(std::move(t));
    ++s;
  }
  out.total_latency_s = env.metrics().total_latency_s();
  return out;
}

/// Shared per-run bookkeeping of both training paths.
struct TrainRun {
  rl::LinearEpsilon epsilon{1.0F, 0.0F, 1};
  TrainerReport report;
  double loss_sum = 0.0;
  std::size_t loss_count = 0;
  std::size_t late_start = 0;
  bool traced = false;
  std::vector<nn::Tensor> best_weights;
  double best_score = std::numeric_limits<double>::infinity();
  std::vector<double> validation_baselines;
};

/// Setup common to both paths: epsilon schedule from the planned step total,
/// tracer tracks, greedy replay seeding and validation baselines.
[[nodiscard]] TrainRun start_run(rl::DqnAgent& agent,
                                 const StateEncoder& encoder,
                                 float reward_scale_s,
                                 const std::vector<sim::ClusterEnv*>& envs,
                                 const std::vector<const sim::Trace*>& traces,
                                 const TrainerConfig& config) {
  TrainRun run;
  std::size_t planned_steps = 0;
  for (std::size_t ep = 0; ep < config.episodes; ++ep)
    planned_steps += traces[ep % traces.size()]->size();
  const std::size_t decay = config.epsilon_decay_steps != 0
                                ? config.epsilon_decay_steps
                                : planned_steps * 3 / 5;
  run.epsilon =
      rl::LinearEpsilon(config.epsilon_start, config.epsilon_end, decay);
  run.late_start = planned_steps * 3 / 4;

  obs::Tracer* tracer = config.tracer;
  run.traced = tracer != nullptr && tracer->enabled();
  agent.set_tracer(tracer);
  if (run.traced) {
    tracer->thread_name(obs::Tracer::kTrainPid, 0, "env-steps");
    tracer->thread_name(obs::Tracer::kTrainPid, 1, "gradient-steps");
  }

  // Demonstration seeding: greedy episodes across envs/traces.
  for (std::size_t ep = 0; ep < config.greedy_warmup_episodes; ++ep)
    seed_replay_with_greedy(agent, encoder, reward_scale_s,
                            *envs[ep % envs.size()],
                            *traces[ep % traces.size()]);

  if (config.validate_every != 0)
    for (sim::ClusterEnv* env : envs)
      run.validation_baselines.push_back(std::max(
          1e-9, greedy_episode_latency(encoder, *env, *traces[0])));
  return run;
}

/// Validation + checkpoint selection after episode `ep` (both paths).
void maybe_validate(TrainRun& run, rl::DqnAgent& agent,
                    const StateEncoder& encoder,
                    const std::vector<sim::ClusterEnv*>& envs,
                    const std::vector<const sim::Trace*>& traces,
                    const TrainerConfig& config, std::size_t ep) {
  if (config.validate_every == 0 || (ep + 1) % config.validate_every != 0)
    return;
  const double score =
      validate(agent, encoder, envs, *traces[0], run.validation_baselines);
  const bool improved = score < run.best_score;
  if (improved) {
    run.best_score = score;
    run.best_weights = agent.snapshot_weights();
    run.report.best_validation = run.report.validation_latency_s.size();
  }
  run.report.validation_latency_s.push_back(score);
  if (run.traced)
    config.tracer->instant(
        obs::Tracer::kTrainPid, 0,
        static_cast<obs::Micros>(run.report.env_steps), "validation", "train",
        {obs::narg("score", score),
         obs::narg("best", static_cast<std::int64_t>(improved ? 1 : 0))});
}

/// Restore the best checkpoint and finalize the report (both paths).
[[nodiscard]] TrainerReport finish_run(TrainRun& run, rl::DqnAgent& agent) {
  agent.set_tracer(nullptr);
  if (!run.best_weights.empty()) agent.restore_weights(run.best_weights);
  if (run.loss_count > 0)
    run.report.late_loss =
        run.loss_sum / static_cast<double>(run.loss_count);
  return std::move(run.report);
}

/// The original loop: one shared RNG stream, gradient steps interleaved with
/// collection. Bit-identical to every release before round collection.
[[nodiscard]] TrainerReport train_agent_interleaved(
    rl::DqnAgent& agent, const StateEncoder& encoder, float reward_scale_s,
    const std::vector<sim::ClusterEnv*>& envs,
    const std::vector<const sim::Trace*>& traces,
    const TrainerConfig& config) {
  util::Rng rng(config.seed);
  TrainRun run = start_run(agent, encoder, reward_scale_s, envs, traces,
                           config);
  obs::Tracer* tracer = config.tracer;

  for (std::size_t ep = 0; ep < config.episodes; ++ep) {
    sim::ClusterEnv& env = *envs[ep % envs.size()];
    const sim::Trace& trace = *traces[ep % traces.size()];
    env.reset(trace);
    const std::size_t episode_start = run.report.env_steps;

    double prev_arrival = 0.0;
    bool has_prev = false;
    while (!env.done()) {
      const sim::Invocation inv = env.current();
      const double prev = has_prev ? prev_arrival : inv.arrival_s;
      EncodedState state = encoder.encode(env, inv, prev);
      prev_arrival = inv.arrival_s;
      has_prev = true;

      const float eps = run.epsilon.value(run.report.env_steps);
      if (run.traced && run.report.env_steps % config.train_every == 0)
        tracer->counter(obs::Tracer::kTrainPid, 0,
                        static_cast<obs::Micros>(run.report.env_steps),
                        "epsilon", static_cast<double>(eps));
      const std::size_t action =
          agent.select_action(state.tokens, state.mask, eps, rng);
      const sim::StepResult result =
          env.step(encoder.to_sim_action(state, action));

      rl::Transition t;
      t.state = std::move(state.tokens);
      t.action = action;
      t.reward = static_cast<float>(-result.latency_s) / reward_scale_s;
      if (env.done()) {
        t.terminal = true;
        t.next_state = nn::Tensor(encoder.num_tokens(),
                                  encoder.config().feature_dim);
        t.next_mask.assign(encoder.num_actions(), 0);
      } else {
        EncodedState next =
            encoder.encode(env, env.current(), prev_arrival);
        t.next_state = std::move(next.tokens);
        t.next_mask = std::move(next.mask);
      }
      agent.observe(std::move(t));

      ++run.report.env_steps;
      if (run.report.env_steps % config.train_every == 0) {
        if (const auto loss = agent.train_step(rng)) {
          ++run.report.train_steps;
          if (run.report.env_steps >= run.late_start) {
            run.loss_sum += *loss;
            ++run.loss_count;
          }
        }
      }
    }
    run.report.episode_total_latency_s.push_back(
        env.metrics().total_latency_s());
    if (run.traced)
      tracer->span(
          obs::Tracer::kTrainPid, 0,
          static_cast<obs::Micros>(episode_start),
          static_cast<obs::Micros>(run.report.env_steps - episode_start),
          "episode", "train",
          {obs::narg("episode", static_cast<std::int64_t>(ep)),
           obs::narg("total_latency_s", env.metrics().total_latency_s())});
    if (config.on_episode_end)
      config.on_episode_end(ep, env.metrics().total_latency_s());

    maybe_validate(run, agent, encoder, envs, traces, config, ep);
  }
  return finish_run(run, agent);
}

/// Round-based collection: freeze the online weights, roll collect_round
/// whole episodes against the frozen policy across a thread pool, then merge
/// the transitions into the replay buffer in episode order with the same
/// gradient cadence the interleaved loop uses. Determinism: per-episode RNG
/// streams are split off the root in global episode order before the
/// fan-out, every episode runs on a cloned environment and reads the frozen
/// online network through its own workspace, epsilon depends only on the
/// planned serial step index, and the merge is sequential — so the worker
/// count never touches any result (asserted in tests/trainer).
[[nodiscard]] TrainerReport train_agent_rounds(
    rl::DqnAgent& agent, const StateEncoder& encoder, float reward_scale_s,
    const std::vector<sim::ClusterEnv*>& envs,
    const std::vector<const sim::Trace*>& traces,
    const TrainerConfig& config) {
  util::Rng root(config.seed);
  util::Rng train_rng = root.split();
  TrainRun run = start_run(agent, encoder, reward_scale_s, envs, traces,
                           config);
  obs::Tracer* tracer = config.tracer;

  // Planned serial step index of each episode's first transition (what the
  // interleaved loop's global counter would read when the episode starts).
  std::vector<std::size_t> planned_start(config.episodes, 0);
  for (std::size_t ep = 1; ep < config.episodes; ++ep)
    planned_start[ep] =
        planned_start[ep - 1] + traces[(ep - 1) % traces.size()]->size();

  util::ThreadPool pool(config.collect_workers);

  for (std::size_t round = 0; round < config.episodes;
       round += config.collect_round) {
    const std::size_t round_end =
        std::min(round + config.collect_round, config.episodes);
    const std::size_t n = round_end - round;

    // Per-episode action streams, split in global episode order so neither
    // round boundaries nor scheduling can shift them.
    std::vector<util::Rng> streams;
    streams.reserve(n);
    for (std::size_t i = 0; i < n; ++i) streams.push_back(root.split());

    // Nothing trains during the fan-out: every worker reads the online
    // network as it stands.
    const rl::QNetwork& policy = agent.online_network();
    std::vector<CollectedEpisode> collected(n);
    pool.parallel_for(n, [&](std::size_t i) {
      const std::size_t ep = round + i;
      const auto env = clone_env(*envs[ep % envs.size()]);
      collected[i] = collect_episode(
          policy, encoder, reward_scale_s, *env,
          *traces[ep % traces.size()], run.epsilon, planned_start[ep],
          streams[i]);
    });

    // Sequential merge in episode order. Because every episode contributes
    // exactly its trace's step count, the live counter here equals the
    // planned index the rollout annealed epsilon by.
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t ep = round + i;
      const std::size_t episode_start = run.report.env_steps;
      for (rl::Transition& t : collected[i].transitions) {
        if (run.traced && run.report.env_steps % config.train_every == 0)
          tracer->counter(
              obs::Tracer::kTrainPid, 0,
              static_cast<obs::Micros>(run.report.env_steps), "epsilon",
              static_cast<double>(run.epsilon.value(run.report.env_steps)));
        agent.observe(std::move(t));
        ++run.report.env_steps;
        if (run.report.env_steps % config.train_every == 0) {
          if (const auto loss = agent.train_step(train_rng)) {
            ++run.report.train_steps;
            if (run.report.env_steps >= run.late_start) {
              run.loss_sum += *loss;
              ++run.loss_count;
            }
          }
        }
      }
      run.report.episode_total_latency_s.push_back(
          collected[i].total_latency_s);
      if (run.traced)
        tracer->span(
            obs::Tracer::kTrainPid, 0,
            static_cast<obs::Micros>(episode_start),
            static_cast<obs::Micros>(run.report.env_steps - episode_start),
            "episode", "train",
            {obs::narg("episode", static_cast<std::int64_t>(ep)),
             obs::narg("total_latency_s", collected[i].total_latency_s)});
      if (config.on_episode_end)
        config.on_episode_end(ep, collected[i].total_latency_s);

      maybe_validate(run, agent, encoder, envs, traces, config, ep);
    }
  }
  return finish_run(run, agent);
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
  if (config.collect_round <= 1)
    return train_agent_interleaved(agent, encoder, reward_scale_s, envs,
                                   traces, config);
  return train_agent_rounds(agent, encoder, reward_scale_s, envs, traces,
                            config);
}

bool load_or_train(rl::DqnAgent& agent, const std::string& path,
                   const std::function<void()>& train) {
  if (std::filesystem::exists(path)) {
    try {
      agent.load(path);
      return true;
    } catch (const util::CheckError&) {
      // Incompatible cache (e.g. config changed): retrain below.
    }
  }
  train();
  agent.save(path);
  return false;
}

}  // namespace mlcr::core
