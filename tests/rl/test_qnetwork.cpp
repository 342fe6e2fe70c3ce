#include "rl/qnetwork.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "nn/gradcheck.hpp"
#include "rl/schedule.hpp"
#include "util/check.hpp"

namespace mlcr::rl {
namespace {

QNetworkConfig tiny_config(bool attention = true) {
  QNetworkConfig cfg;
  cfg.feature_dim = 6;
  cfg.num_slots = 4;
  cfg.embed_dim = 8;
  cfg.heads = 2;
  cfg.blocks = 2;
  cfg.ffn_dim = 16;
  cfg.use_attention = attention;
  return cfg;
}

TEST(QNetwork, OutputHasOneQPerAction) {
  util::Rng rng(1);
  QNetwork net(tiny_config(), rng);
  EXPECT_EQ(net.num_actions(), 5U);
  EXPECT_EQ(net.num_tokens(), 6U);
  const nn::Tensor q = net.forward(nn::Tensor(6, 6, 0.1F));
  EXPECT_EQ(q.rows(), 5U);
  EXPECT_EQ(q.cols(), 1U);
}

TEST(QNetwork, RejectsWrongTokenShape) {
  util::Rng rng(1);
  QNetwork net(tiny_config(), rng);
  EXPECT_THROW((void)net.forward(nn::Tensor(5, 6)), util::CheckError);
  EXPECT_THROW((void)net.forward(nn::Tensor(6, 7)), util::CheckError);
}

TEST(QNetwork, GradCheckAttention) {
  util::Rng rng(2);
  QNetwork net(tiny_config(), rng);
  const nn::Tensor x = nn::Tensor::he_uniform(6, 6, rng);
  const nn::Tensor seed = nn::Tensor::he_uniform(5, 1, rng);
  EXPECT_LT(nn::check_input_gradient(net, x, seed).max_rel_error, 5e-2F);
}

TEST(QNetwork, GradCheckMlpAblation) {
  util::Rng rng(3);
  QNetwork net(tiny_config(/*attention=*/false), rng);
  const nn::Tensor x = nn::Tensor::he_uniform(6, 6, rng);
  const nn::Tensor seed = nn::Tensor::he_uniform(5, 1, rng);
  EXPECT_LT(nn::check_input_gradient(net, x, seed).max_rel_error, 5e-2F);
}

TEST(QNetwork, AttentionVariantSeesOtherTokens) {
  util::Rng rng(4);
  QNetwork attn(tiny_config(true), rng);
  util::Rng rng2(4);
  QNetwork mlp(tiny_config(false), rng2);

  nn::Tensor x = nn::Tensor::he_uniform(6, 6, rng);
  const nn::Tensor q_a1 = attn.forward(x);
  const nn::Tensor q_m1 = mlp.forward(x);
  // Perturb the *cluster* token; slot Q-values can only change under
  // attention (the MLP ablation treats tokens independently).
  x(0, 2) += 1.0F;
  const nn::Tensor q_a2 = attn.forward(x);
  const nn::Tensor q_m2 = mlp.forward(x);
  EXPECT_NE(q_a1(0, 0), q_a2(0, 0));
  EXPECT_FLOAT_EQ(q_m1(0, 0), q_m2(0, 0));
}

void expect_same_bits(const nn::Tensor& a, const nn::Tensor& b) {
  ASSERT_TRUE(a.same_shape(b));
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

// forward() runs every row into caches it reuses, so nothing of one state
// may reach the next one's gradients: forward(A), forward(B), backward must
// equal a fresh network's forward(B) + backward bit for bit. A's rows all
// differ; B ends in empty (all-zero) slots, which infer would compute once,
// so a training pass over the distinct rows only would leave A's rows in
// the caches.
TEST(QNetwork, ReusedTrainingCacheCarriesNothingOver) {
  for (const bool attention : {true, false}) {
    SCOPED_TRACE(attention ? "attention" : "mlp");
    util::Rng data(5);
    const nn::Tensor a = nn::Tensor::he_uniform(6, 6, data);
    nn::Tensor b = nn::Tensor::he_uniform(6, 6, data);
    std::fill(b.row(3), b.row(3) + 3 * 6, 0.0F);
    const nn::Tensor seed = nn::Tensor::he_uniform(5, 1, data);
    util::Rng reused_rng(6);
    util::Rng fresh_rng(6);
    QNetwork reused(tiny_config(attention), reused_rng);
    QNetwork fresh(tiny_config(attention), fresh_rng);

    (void)reused.forward(a);
    expect_same_bits(reused.forward(b), fresh.forward(b));
    expect_same_bits(reused.backward(seed), fresh.backward(seed));
    const auto reused_params = reused.parameters();
    const auto fresh_params = fresh.parameters();
    for (std::size_t i = 0; i < reused_params.size(); ++i)
      expect_same_bits(reused_params[i]->grad, fresh_params[i]->grad);
  }
}

TEST(MaskedArgmax, PicksBestAllowed) {
  nn::Tensor q(4, 1);
  q(0, 0) = 5.0F;
  q(1, 0) = 9.0F;
  q(2, 0) = 7.0F;
  q(3, 0) = 1.0F;
  EXPECT_EQ(masked_argmax(q, {1, 1, 1, 1}), 1U);
  EXPECT_EQ(masked_argmax(q, {1, 0, 1, 1}), 2U);
  EXPECT_EQ(masked_argmax(q, {0, 0, 0, 1}), 3U);
  EXPECT_EQ(masked_argmax(q, {0, 0, 0, 0}), std::nullopt);
}

TEST(MaskedArgmax, RejectsWrongMaskSize) {
  nn::Tensor q(3, 1);
  EXPECT_THROW((void)masked_argmax(q, {1, 1}), util::CheckError);
}

TEST(LinearEpsilon, AnnealsLinearlyThenFlat) {
  const LinearEpsilon eps(1.0F, 0.1F, 100);
  EXPECT_FLOAT_EQ(eps.value(0), 1.0F);
  EXPECT_NEAR(eps.value(50), 0.55F, 1e-5F);
  EXPECT_FLOAT_EQ(eps.value(100), 0.1F);
  EXPECT_FLOAT_EQ(eps.value(10'000), 0.1F);
}

TEST(LinearEpsilon, ZeroDecayIsConstantEnd) {
  const LinearEpsilon eps(1.0F, 0.2F, 0);
  EXPECT_FLOAT_EQ(eps.value(0), 0.2F);
}

}  // namespace
}  // namespace mlcr::rl
