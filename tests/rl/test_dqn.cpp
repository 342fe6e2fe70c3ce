#include "rl/dqn.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "rl/infer_golden.hpp"
#include "util/check.hpp"

namespace mlcr::rl {
namespace {

DqnConfig tiny_dqn(std::size_t min_replay = 8) {
  DqnConfig cfg;
  cfg.network.feature_dim = 4;
  cfg.network.num_slots = 2;  // 3 actions
  cfg.network.embed_dim = 8;
  cfg.network.heads = 2;
  cfg.network.blocks = 1;
  cfg.network.ffn_dim = 16;
  cfg.learning_rate = 5e-3F;
  cfg.gamma = 0.0F;  // contextual bandit unless stated otherwise
  cfg.batch_size = 8;
  cfg.min_replay = min_replay;
  cfg.target_sync_every = 10;
  return cfg;
}

// Tokens must be distinguishable: the Q-head reads per-token outputs, and a
// permutation-equivariant network assigns equal Q to identical tokens.
nn::Tensor bandit_state() {
  nn::Tensor s(4, 4);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      s(r, c) = 0.2F * static_cast<float>(r) + 0.1F * static_cast<float>(c);
  return s;
}

TEST(DqnAgent, TrainStepGatedOnMinReplay) {
  DqnAgent agent(tiny_dqn(/*min_replay=*/4), util::Rng(1));
  util::Rng rng(2);
  EXPECT_EQ(agent.train_step(rng), std::nullopt);
  for (int i = 0; i < 3; ++i) {
    Transition t;
    t.state = bandit_state();
    t.action = 0;
    t.reward = 0.0F;
    t.terminal = true;
    agent.observe(std::move(t));
    if (i < 2) {
      EXPECT_EQ(agent.train_step(rng), std::nullopt);
    }
  }
  Transition t;
  t.state = bandit_state();
  t.action = 0;
  t.reward = 0.0F;
  t.terminal = true;
  agent.observe(std::move(t));
  EXPECT_TRUE(agent.train_step(rng).has_value());
  EXPECT_EQ(agent.train_steps(), 1U);
}

TEST(DqnAgent, LearnsBanditRewards) {
  // Rewards: action 0 -> -1, action 1 -> +1, action 2 -> 0 (terminal).
  DqnAgent agent(tiny_dqn(), util::Rng(3));
  util::Rng rng(4);
  for (int i = 0; i < 60; ++i) {
    const std::size_t a = i % 3;
    Transition t;
    t.state = bandit_state();
    t.action = a;
    t.reward = a == 0 ? -1.0F : (a == 1 ? 1.0F : 0.0F);
    t.terminal = true;
    agent.observe(std::move(t));
  }
  for (int i = 0; i < 300; ++i) (void)agent.train_step(rng);

  const nn::Tensor q = agent.q_values(bandit_state());
  EXPECT_GT(q(1, 0), q(0, 0));
  EXPECT_GT(q(1, 0), q(2, 0));
  EXPECT_NEAR(q(1, 0), 1.0F, 0.3F);
  EXPECT_NEAR(q(0, 0), -1.0F, 0.3F);
  InferWorkspace ws(agent.config().network);
  EXPECT_EQ(agent.greedy_action(bandit_state(), {1, 1, 1}, ws), 1U);
}

TEST(DqnAgent, GreedyRespectsMask) {
  DqnAgent agent(tiny_dqn(), util::Rng(3));
  util::Rng rng(4);
  // Make action 1 clearly the best via bandit training.
  for (int i = 0; i < 60; ++i) {
    Transition t;
    t.state = bandit_state();
    t.action = i % 3;
    t.reward = (i % 3) == 1 ? 1.0F : -1.0F;
    t.terminal = true;
    agent.observe(std::move(t));
  }
  for (int i = 0; i < 200; ++i) (void)agent.train_step(rng);
  InferWorkspace ws(agent.config().network);
  EXPECT_EQ(agent.greedy_action(bandit_state(), {1, 1, 1}, ws), 1U);
  // Mask the best action away: the agent must pick among the rest.
  const std::size_t a = agent.greedy_action(bandit_state(), {1, 0, 1}, ws);
  EXPECT_NE(a, 1U);
}

TEST(DqnAgent, EpsilonOneExploresUniformlyOverMask) {
  DqnAgent agent(tiny_dqn(), util::Rng(5));
  util::Rng rng(6);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 600; ++i)
    ++counts[agent.select_action(bandit_state(), {1, 0, 1}, 1.0F, rng)];
  EXPECT_EQ(counts[1], 0) << "masked action must never be explored";
  EXPECT_GT(counts[0], 200);
  EXPECT_GT(counts[2], 200);
}

TEST(DqnAgent, BootstrapsWithGamma) {
  // Two-step chain: in s0 action 0 gives reward 0 and leads to s1 where the
  // only allowed action yields +1. With gamma=0.9, Q(s0, 0) -> 0.9.
  DqnConfig cfg = tiny_dqn();
  cfg.gamma = 0.9F;
  DqnAgent agent(cfg, util::Rng(7));
  util::Rng rng(8);

  nn::Tensor s0(4, 4, 0.1F);
  nn::Tensor s1(4, 4, 0.9F);
  for (int i = 0; i < 40; ++i) {
    Transition t01;
    t01.state = s0;
    t01.action = 0;
    t01.reward = 0.0F;
    t01.next_state = s1;
    t01.next_mask = {0, 1, 0};
    agent.observe(std::move(t01));

    Transition t1;
    t1.state = s1;
    t1.action = 1;
    t1.reward = 1.0F;
    t1.terminal = true;
    agent.observe(std::move(t1));
  }
  for (int i = 0; i < 500; ++i) (void)agent.train_step(rng);
  const nn::Tensor q0 = agent.q_values(s0);
  EXPECT_NEAR(q0(0, 0), 0.9F, 0.3F);
}

TEST(DqnAgent, SaveLoadRoundTrip) {
  DqnAgent a(tiny_dqn(), util::Rng(9));
  DqnAgent b(tiny_dqn(), util::Rng(10));
  const std::string path = ::testing::TempDir() + "/dqn_agent.bin";
  a.save(path);
  b.load(path);
  const nn::Tensor qa = a.q_values(bandit_state());
  const nn::Tensor qb = b.q_values(bandit_state());
  EXPECT_TRUE(qa == qb);
}

TEST(DqnAgent, NonFiniteLossThrowsBeforeTheWeightsMove) {
  DqnAgent agent(tiny_dqn(), util::Rng(11));
  for (int i = 0; i < 16; ++i) {
    Transition t;
    t.state = bandit_state();
    t.action = i % 3;
    t.reward = std::numeric_limits<float>::quiet_NaN();
    t.terminal = true;
    agent.observe(std::move(t));
  }
  const std::vector<nn::Tensor> before = agent.snapshot_weights();
  util::Rng rng(12);
  try {
    (void)agent.train_step(rng);
    FAIL() << "a NaN loss must not pass as a train step";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("train step 1"), std::string::npos)
        << e.what();
  }
  const std::vector<nn::Tensor> after = agent.snapshot_weights();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_TRUE(after[i] == before[i]) << "weight tensor " << i;
  EXPECT_EQ(agent.train_steps(), 0U);
}

std::vector<nn::Tensor*> workspace_tensors(InferWorkspace& ws) {
  nn::BlockWorkspace& b = ws.block;
  return {&ws.h,    &b.norm,   &b.q,   &b.k,      &b.v,       &b.key_t,
          &b.scores, &b.concat, &b.out, &b.hidden, &ws.values, &ws.q};
}

// A single-action mask decides without a forward pass, so the workspace a
// forward pass writes comes back exactly as it went in.
TEST(DqnAgent, SingleActionMaskRunsNoForwardPass) {
  constexpr float kSentinel = -12345.0F;
  DqnAgent agent(tiny_dqn(), util::Rng(13));
  InferWorkspace ws(agent.config().network);
  for (nn::Tensor* t : workspace_tensors(ws))
    for (std::size_t i = 0; i < t->size(); ++i) t->data()[i] = kSentinel;
  const auto written = [&ws] {
    std::size_t n = 0;
    for (nn::Tensor* t : workspace_tensors(ws))
      for (std::size_t i = 0; i < t->size(); ++i)
        n += t->data()[i] != kSentinel ? 1 : 0;
    return n;
  };

  EXPECT_EQ(agent.greedy_action(bandit_state(), {0, 0, 1}, ws), 2U);
  EXPECT_EQ(agent.greedy_action(bandit_state(), {1, 0, 0}, ws), 0U);
  EXPECT_EQ(written(), 0U) << "a single-action mask ran the forward pass";
  // Two allowed actions need the Q-values.
  (void)agent.greedy_action(bandit_state(), {0, 1, 1}, ws);
  EXPECT_GT(written(), 0U);
}

TEST(DqnAgent, SingleActionMaskKeepsTheForwardPassChecks) {
  DqnAgent agent(tiny_dqn(), util::Rng(14));
  InferWorkspace ws(agent.config().network);
  // The network takes 4 x 4 tokens.
  EXPECT_THROW((void)agent.greedy_action(nn::Tensor(5, 4), {0, 0, 1}, ws),
               util::CheckError);
  EXPECT_THROW((void)agent.greedy_action(nn::Tensor(4, 3), {0, 0, 1}, ws),
               util::CheckError);
  // The mask has one entry per action (3).
  EXPECT_THROW((void)agent.greedy_action(bandit_state(), {0, 1}, ws),
               util::CheckError);
  EXPECT_THROW((void)agent.greedy_action(bandit_state(), {0, 0, 0, 1}, ws),
               util::CheckError);
  EXPECT_THROW((void)agent.greedy_action(bandit_state(), {0, 0, 0}, ws),
               util::CheckError);
  util::Rng rng(15);
  EXPECT_THROW(
      (void)agent.select_action(nn::Tensor(5, 4), {0, 1, 0}, 0.0F, rng),
      util::CheckError);
}

// Oracle over an FStartBench rollout: on every state the greedy action is
// the masked argmax of the full Q-values, on single-action masks (no
// forward pass) and on the rest alike.
TEST(DqnAgent, GreedyActionMatchesMaskedArgmaxOverAnFStartBenchRollout) {
  DqnConfig cfg;
  cfg.network = golden::network_config(true);
  const DqnAgent agent(cfg, util::Rng(golden::kNetworkSeed));
  InferWorkspace ws(cfg.network);
  std::size_t single = 0;
  std::size_t multi = 0;
  golden::run_episode([&](const core::EncodedState& state) {
    const std::size_t action =
        agent.greedy_action(state.tokens, state.mask, ws);
    EXPECT_EQ(action, masked_argmax(agent.q_values(state.tokens), state.mask)
                          .value_or(SIZE_MAX));
    ++(sole_allowed_action(state.mask) ? single : multi);
    return action;
  });
  EXPECT_GT(single, 0U);
  EXPECT_GT(multi, 0U);
}

}  // namespace
}  // namespace mlcr::rl
