// Bit-identity pinning for the agent's multi-state APIs: q_values_batch and
// greedy_actions loop over QNetwork::infer with one shared workspace, so
// every state's output must equal the one-at-a-time path exactly (EXPECT_EQ
// on floats) — a workspace that carried state between calls would show.
#include <gtest/gtest.h>

#include <vector>

#include "rl/dqn.hpp"
#include "rl/qnetwork.hpp"
#include "util/rng.hpp"

namespace mlcr::rl {
namespace {

void expect_tensors_identical(const nn::Tensor& a, const nn::Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      EXPECT_EQ(a(r, c), b(r, c)) << "(" << r << ", " << c << ")";
}

QNetworkConfig tiny_config(bool use_attention) {
  QNetworkConfig cfg;
  cfg.feature_dim = 6;
  cfg.num_slots = 3;
  cfg.embed_dim = 8;
  cfg.heads = 2;
  cfg.blocks = 2;
  cfg.ffn_dim = 16;
  cfg.use_attention = use_attention;
  return cfg;
}

std::vector<nn::Tensor> random_states(const QNetworkConfig& cfg,
                                      std::size_t count, util::Rng& rng) {
  std::vector<nn::Tensor> states;
  const std::size_t tokens = kFirstSlotTokenRow + cfg.num_slots;
  for (std::size_t i = 0; i < count; ++i)
    states.push_back(nn::Tensor::he_uniform(tokens, cfg.feature_dim, rng));
  return states;
}

TEST(BatchedInference, AgentBatchedApisMatchSingleState) {
  util::Rng rng(17);
  DqnConfig cfg;
  cfg.network = tiny_config(true);
  DqnAgent agent(cfg, util::Rng(21));
  const auto states = random_states(cfg.network, 4, rng);
  std::vector<const nn::Tensor*> ptrs;
  for (const nn::Tensor& s : states) ptrs.push_back(&s);

  // All-allowed masks plus one restricted mask exercise the argmax path.
  std::vector<ActionMask> masks(states.size(),
                                ActionMask(cfg.network.num_slots + 1, 1));
  masks[2].assign(cfg.network.num_slots + 1, 0);
  masks[2][1] = 1;
  masks[2][cfg.network.num_slots] = 1;

  std::vector<nn::Tensor> single_q;
  for (const nn::Tensor& s : states) single_q.push_back(agent.q_values(s));
  const auto batched_q = agent.q_values_batch(ptrs);
  ASSERT_EQ(batched_q.size(), single_q.size());
  for (std::size_t i = 0; i < single_q.size(); ++i) {
    SCOPED_TRACE(i);
    expect_tensors_identical(batched_q[i], single_q[i]);
  }

  std::vector<const ActionMask*> mask_ptrs;
  for (const ActionMask& m : masks) mask_ptrs.push_back(&m);
  const auto actions = agent.greedy_actions(ptrs, mask_ptrs);
  ASSERT_EQ(actions.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    const auto expected = masked_argmax(single_q[i], masks[i]);
    ASSERT_TRUE(expected.has_value());
    EXPECT_EQ(actions[i], *expected) << "state " << i;
  }
}

}  // namespace
}  // namespace mlcr::rl
