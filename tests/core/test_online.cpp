#include "core/online.hpp"

#include <gtest/gtest.h>

#include "core/trainer.hpp"
#include "policies/runner.hpp"
#include "testing/fixtures.hpp"

namespace mlcr::core {
namespace {

using mlcr::testing::TinyWorld;

MlcrConfig tiny_cfg() {
  MlcrConfig cfg = make_default_mlcr_config(/*num_slots=*/4,
                                            /*embed_dim=*/16);
  cfg.dqn.network.ffn_dim = 32;
  cfg.dqn.batch_size = 8;
  cfg.dqn.min_replay = 16;
  return cfg;
}

sim::Trace repeated_trace(const TinyWorld& world, int rounds) {
  std::vector<sim::Invocation> invs;
  double t = 0.0;
  for (int r = 0; r < rounds; ++r) {
    invs.push_back(TinyWorld::inv(world.fn_py_flask, t, 0.4));
    invs.push_back(TinyWorld::inv(world.fn_py_numpy, t + 25.0, 0.4));
    t += 50.0;
  }
  return sim::Trace(std::move(invs));
}

TEST(OnlineMlcr, RunsValidEpisodesAndCollectsExperience) {
  TinyWorld world;
  const MlcrConfig cfg = tiny_cfg();
  auto agent = std::make_shared<rl::DqnAgent>(cfg.dqn, util::Rng(1));
  OnlineConfig online;
  online.train_every = 2;
  OnlineMlcrScheduler scheduler(agent, StateEncoder(cfg.encoder),
                                cfg.reward_scale_s, online);
  auto env = world.make_env();
  const sim::Trace trace = repeated_trace(world, 12);
  const auto s = policies::run_episode(env, scheduler, trace);
  EXPECT_EQ(s.invocations, trace.size());
  // One transition per decision except the last (flushed at next episode).
  EXPECT_GE(agent->replay().size(), trace.size() - 1);
  EXPECT_GT(scheduler.online_train_steps(), 0U);
}

TEST(OnlineMlcr, EpisodeBoundaryFlushesTerminalTransition) {
  TinyWorld world;
  const MlcrConfig cfg = tiny_cfg();
  auto agent = std::make_shared<rl::DqnAgent>(cfg.dqn, util::Rng(2));
  OnlineConfig online;
  online.train_every = 0;  // pure experience collection
  OnlineMlcrScheduler scheduler(agent, StateEncoder(cfg.encoder),
                                cfg.reward_scale_s, online);
  auto env = world.make_env();
  const sim::Trace trace = repeated_trace(world, 3);
  (void)policies::run_episode(env, scheduler, trace);
  const std::size_t after_first = agent->replay().size();
  EXPECT_EQ(after_first, trace.size() - 1);
  // Starting the next episode flushes the held-back final transition.
  (void)policies::run_episode(env, scheduler, trace);
  EXPECT_EQ(agent->replay().size(), 2 * trace.size() - 1);
}

TEST(OnlineMlcr, ZeroEpsilonMatchesOfflineSchedulerDecisions) {
  TinyWorld world;
  const MlcrConfig cfg = tiny_cfg();
  auto agent = std::make_shared<rl::DqnAgent>(cfg.dqn, util::Rng(3));
  OnlineConfig online;
  online.epsilon = 0.0F;
  online.train_every = 0;  // no learning: must track the offline scheduler

  auto env1 = world.make_env();
  auto env2 = world.make_env();
  const sim::Trace trace = repeated_trace(world, 8);
  OnlineMlcrScheduler online_sched(agent, StateEncoder(cfg.encoder),
                                   cfg.reward_scale_s, online);
  MlcrScheduler offline_sched(agent, StateEncoder(cfg.encoder));
  const auto a = policies::run_episode(env1, online_sched, trace);
  const auto b = policies::run_episode(env2, offline_sched, trace);
  EXPECT_DOUBLE_EQ(a.total_latency_s, b.total_latency_s);
  EXPECT_EQ(a.cold_starts, b.cold_starts);
}

TEST(OnlineMlcr, FineTuningUpdatesWeightsAndLearnsWarmStartValue) {
  TinyWorld world;
  const MlcrConfig cfg = tiny_cfg();
  auto agent = std::make_shared<rl::DqnAgent>(cfg.dqn, util::Rng(4));
  OnlineConfig online;
  online.epsilon = 0.05F;
  online.train_every = 1;
  online.seed = 99;
  OnlineMlcrScheduler scheduler(agent, StateEncoder(cfg.encoder),
                                cfg.reward_scale_s, online);
  auto env = world.make_env();
  const sim::Trace trace = repeated_trace(world, 10);

  const auto before = agent->snapshot_weights();
  double first = 0.0, last = 0.0;
  for (int episode = 0; episode < 10; ++episode) {
    const auto s = policies::run_episode(env, scheduler, trace);
    if (episode == 0) first = s.total_latency_s;
    last = s.total_latency_s;
  }
  // Weights must have moved.
  const auto after = agent->snapshot_weights();
  bool changed = false;
  for (std::size_t i = 0; i < before.size(); ++i)
    changed |= !(before[i] == after[i]);
  EXPECT_TRUE(changed);
  // ... without the serving quality regressing on a stationary workload.
  EXPECT_LE(last, first + 1e-9);

  // The unambiguous repeated signal (warm L3 ≈ 0.1 s vs cold ≈ 7 s) must be
  // reflected in the learned Q-values: with a full-match container parked,
  // the greedy action is reuse, not cold start.
  env.reset(trace);
  (void)env.step(sim::Action::cold());  // park a py-flask container
  const StateEncoder encoder(cfg.encoder);
  const EncodedState state = encoder.encode(env, env.current(), 0.0);
  ASSERT_EQ(state.mask[0], 1);
  rl::InferWorkspace ws(agent->config().network);
  const std::size_t action = agent->greedy_action(state.tokens, state.mask, ws);
  EXPECT_NE(action, cfg.encoder.num_slots)
      << "fine-tuned policy must prefer reuse over cold start here";
}

TEST(OnlineMlcr, SystemSpecFactory) {
  const MlcrConfig cfg = tiny_cfg();
  auto agent = std::make_shared<rl::DqnAgent>(cfg.dqn, util::Rng(5));
  const auto spec =
      make_online_mlcr_system(agent, cfg.encoder, cfg.reward_scale_s);
  EXPECT_EQ(spec.name, "MLCR-online");
  EXPECT_NE(spec.scheduler, nullptr);
}

}  // namespace
}  // namespace mlcr::core
