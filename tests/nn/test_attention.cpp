#include "nn/attention.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "nn/gradcheck.hpp"
#include "util/check.hpp"

namespace mlcr::nn {
namespace {

TEST(MultiHeadAttention, OutputShapeMatchesInput) {
  util::Rng rng(1);
  MultiHeadAttention mha(8, 2, rng);
  const Tensor x = Tensor::he_uniform(5, 8, rng);
  const Tensor y = mha.forward(x);
  EXPECT_EQ(y.rows(), 5U);
  EXPECT_EQ(y.cols(), 8U);
}

TEST(MultiHeadAttention, RequiresDivisibleHeads) {
  util::Rng rng(1);
  EXPECT_THROW(MultiHeadAttention(10, 3, rng), util::CheckError);
}

TEST(MultiHeadAttention, AttentionRowsAreDistributions) {
  util::Rng rng(2);
  MultiHeadAttention mha(8, 2, rng);
  (void)mha.forward(Tensor::he_uniform(4, 8, rng));
  ASSERT_EQ(mha.last_attention().size(), 2U);
  for (const Tensor& attn : mha.last_attention()) {
    ASSERT_EQ(attn.rows(), 4U);
    ASSERT_EQ(attn.cols(), 4U);
    for (std::size_t r = 0; r < 4; ++r) {
      float sum = 0.0F;
      for (std::size_t c = 0; c < 4; ++c) {
        EXPECT_GE(attn(r, c), 0.0F);
        sum += attn(r, c);
      }
      EXPECT_NEAR(sum, 1.0F, 1e-5F);
    }
  }
}

TEST(MultiHeadAttention, MixesInformationAcrossTokens) {
  util::Rng rng(3);
  MultiHeadAttention mha(8, 2, rng);
  Tensor x = Tensor::he_uniform(3, 8, rng);
  const Tensor y1 = mha.forward(x);
  x(2, 0) += 1.0F;  // perturb a *different* token
  const Tensor y2 = mha.forward(x);
  float delta_row0 = 0.0F;
  for (std::size_t c = 0; c < 8; ++c)
    delta_row0 += std::abs(y1(0, c) - y2(0, c));
  EXPECT_GT(delta_row0, 0.0F)
      << "self-attention must propagate token 2's change into token 0";
}

TEST(MultiHeadAttention, GradCheck) {
  util::Rng rng(4);
  MultiHeadAttention mha(6, 2, rng);
  const Tensor x = Tensor::he_uniform(4, 6, rng);
  const Tensor seed = Tensor::he_uniform(4, 6, rng);
  EXPECT_LT(check_input_gradient(mha, x, seed).max_rel_error, 4e-2F);
  EXPECT_LT(check_parameter_gradients(mha, x, seed).max_rel_error, 4e-2F);
}

TEST(MultiHeadAttention, ParameterCount) {
  util::Rng rng(1);
  MultiHeadAttention mha(8, 2, rng);
  // Four projections, each 8x8 weight + 1x8 bias.
  EXPECT_EQ(mha.parameter_count(), 4U * (64U + 8U));
}

TEST(MultiHeadAttention, KeyBiasGradientIsZero) {
  // Softmax over scores is invariant to adding a constant to every key, so
  // the K-projection bias must receive an (analytically) zero gradient.
  util::Rng rng(8);
  MultiHeadAttention mha(6, 2, rng);
  const Tensor x = Tensor::he_uniform(4, 6, rng);
  const Tensor seed = Tensor::he_uniform(4, 6, rng);
  mha.zero_grad();
  (void)mha.forward(x);
  (void)mha.backward(seed);
  // Parameter order: q (w, b), k (w, b), v, out.
  const auto params = mha.parameters();
  ASSERT_EQ(params[3]->name, "bias");
  EXPECT_LT(params[3]->grad.max_abs(), 1e-5F);
}

void expect_same_bits(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.same_shape(b));
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

// forward() sizes its training cache once per token count and writes all
// of it, so a forward() on another input leaves nothing behind: forward(A),
// forward(B), backward must equal a fresh layer's forward(B) + backward bit
// for bit, with B longer than A, shorter, or as long. B ends in repeated
// rows, as a state's empty slots do.
TEST(MultiHeadAttention, ReusedTrainingCacheCarriesNothingOver) {
  for (const auto& [a_tokens, b_tokens] :
       {std::pair<std::size_t, std::size_t>{5, 3}, {3, 5}, {5, 5}}) {
    SCOPED_TRACE(::testing::Message() << a_tokens << " then " << b_tokens);
    util::Rng data(9);
    const Tensor a = Tensor::he_uniform(a_tokens, 6, data);
    Tensor b = Tensor::he_uniform(b_tokens, 6, data);
    std::memcpy(b.row(b_tokens - 1), b.row(b_tokens - 2), 6 * sizeof(float));
    const Tensor seed = Tensor::he_uniform(b_tokens, 6, data);
    util::Rng reused_rng(10);
    util::Rng fresh_rng(10);
    MultiHeadAttention reused(6, 2, reused_rng);
    MultiHeadAttention fresh(6, 2, fresh_rng);

    (void)reused.forward(a);
    expect_same_bits(reused.forward(b), fresh.forward(b));
    expect_same_bits(reused.backward(seed), fresh.backward(seed));
    const auto reused_params = reused.parameters();
    const auto fresh_params = fresh.parameters();
    for (std::size_t i = 0; i < reused_params.size(); ++i)
      expect_same_bits(reused_params[i]->grad, fresh_params[i]->grad);
    for (std::size_t h = 0; h < 2; ++h)
      expect_same_bits(reused.last_attention()[h], fresh.last_attention()[h]);
  }
}

TEST(TransformerBlock, PreservesShape) {
  util::Rng rng(5);
  TransformerBlock block(8, 2, 16, rng);
  const Tensor x = Tensor::he_uniform(6, 8, rng);
  const Tensor y = block.forward(x);
  EXPECT_TRUE(y.same_shape(x));
}

TEST(TransformerBlock, GradCheck) {
  util::Rng rng(6);
  TransformerBlock block(6, 2, 12, rng);
  const Tensor x = Tensor::he_uniform(3, 6, rng);
  const Tensor seed = Tensor::he_uniform(3, 6, rng);
  EXPECT_LT(check_input_gradient(block, x, seed).max_rel_error, 5e-2F);
  // Parameter perturbations can push an FFN ReLU pre-activation across its
  // kink, where central differences are off by O(0.1) even for a correct
  // gradient — hence the looser bound (the kink-free layers are checked at
  // 2-5% individually).
  EXPECT_LT(check_parameter_gradients(block, x, seed).max_rel_error, 0.15F);
}

TEST(TransformerBlock, ResidualPathDominatesAtInit) {
  // With freshly initialized (small) weights the block output should stay
  // in the neighbourhood of its input — the residual connections work.
  util::Rng rng(7);
  TransformerBlock block(8, 2, 16, rng);
  const Tensor x = Tensor::he_uniform(4, 8, rng);
  const Tensor y = block.forward(x);
  Tensor diff = y;
  diff.axpy_(-1.0F, x);
  EXPECT_LT(diff.squared_norm(), 25.0F * x.squared_norm() + 1.0F);
}

}  // namespace
}  // namespace mlcr::nn
