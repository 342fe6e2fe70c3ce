// QNetwork::infer, the const inference path, and forward(), the training
// pass of the same body: both bit-identical to the allocating forward pass
// the network had before that body (reference_forward.hpp) at widths that
// exercise every gemm panel tail and on states whose trailing rows repeat
// (infer computes them once), pinned against Q-values recorded by forward()
// before infer existed (tests/rl/infer_golden.txt), and infer safe to call
// from several threads on one network.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rl/infer_golden.hpp"
#include "rl/qnetwork.hpp"
#include "rl/reference_forward.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace mlcr::rl {
namespace {

std::uint32_t bits_of(float v) {
  std::uint32_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void expect_same_bits(const nn::Tensor& a, const nn::Tensor& b) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(bits_of(a.data()[i]), bits_of(b.data()[i]))
        << "Q[" << i << "]: " << a.data()[i] << " vs " << b.data()[i];
}

/// Token matrices with about a quarter of the features exactly zero, as
/// encoded states have.
std::vector<nn::Tensor> random_states(const QNetworkConfig& cfg,
                                      std::size_t count, util::Rng& rng) {
  std::vector<nn::Tensor> states;
  const std::size_t tokens = kFirstSlotTokenRow + cfg.num_slots;
  for (std::size_t i = 0; i < count; ++i) {
    nn::Tensor s = nn::Tensor::he_uniform(tokens, cfg.feature_dim, rng);
    for (std::size_t k = 0; k < s.size(); ++k)
      if (rng.uniform() < 0.25) s.data()[k] = 0.0F;
    states.push_back(std::move(s));
  }
  return states;
}

// Embed 20 (heads of 10: panels 8 + 1 + 1) and 48 (heads of 24: 16 + 8),
// ffn 40 (16 + 16 + 8) and 96 (48 + 48), 5 and 24 slots (7 and 26 tokens:
// score rows of 1 x 7 and 16 + 8 + 1 + 1), and the value head's width 1.
TEST(QNetworkInfer, MatchesForwardBitForBitAcrossPanelTails) {
  util::Rng rng(31);
  for (const bool attention : {true, false})
    for (const std::size_t embed : {20, 48})
      for (const std::size_t ffn : {40, 96})
        for (const std::size_t slots : {5, 24}) {
          SCOPED_TRACE(::testing::Message()
                       << (attention ? "attention" : "mlp") << " embed "
                       << embed << " ffn " << ffn << " slots " << slots);
          QNetworkConfig cfg;
          cfg.feature_dim = 16;
          cfg.num_slots = slots;
          cfg.embed_dim = embed;
          cfg.ffn_dim = ffn;
          cfg.use_attention = attention;
          QNetwork net(cfg, rng);
          reference::Forward reference(net);
          InferWorkspace ws(cfg);
          // One workspace across several states: nothing may carry over.
          for (const nn::Tensor& s : random_states(cfg, 3, rng)) {
            const nn::Tensor want = reference(s);
            expect_same_bits(net.infer(s, ws), want);
            expect_same_bits(net.forward(s), want);
          }
        }
}

// infer computes a trailing run of bit-identical token rows once. States
// whose rows [T - 1 - c, T) all equal one row, for c = 0 .. T - 1 (c = T - 1:
// every row equal), must still match the reference bit for bit, whether the
// repeated row is zeros (empty slots), nonzero, or holds an inf or a NaN.
// One workspace serves every state, with the distinct-row count falling and
// then rising, so rows a call skips must not carry over from the last.
TEST(QNetworkInfer, TrailingRepeatedRowsMatchForward) {
  util::Rng rng(34);
  for (const bool attention : {true, false})
    for (const std::size_t embed : {20, 48})
      for (const std::size_t ffn : {40, 96})
        for (const std::size_t slots : {5, 24}) {
          QNetworkConfig cfg;
          cfg.feature_dim = 16;
          cfg.num_slots = slots;
          cfg.embed_dim = embed;
          cfg.ffn_dim = ffn;
          cfg.use_attention = attention;
          QNetwork net(cfg, rng);
          reference::Forward reference(net);
          InferWorkspace ws(cfg);
          const std::size_t tokens = net.num_tokens();
          const std::vector<nn::Tensor> bases = random_states(cfg, 2, rng);
          nn::Tensor repeated = random_states(cfg, 1, rng).front();
          repeated.row(1)[3] = std::numeric_limits<float>::infinity();
          repeated.row(2)[5] = std::numeric_limits<float>::quiet_NaN();
          const std::vector<std::vector<float>> rows = {
              std::vector<float>(cfg.feature_dim, 0.0F),
              {repeated.row(0), repeated.row(0) + cfg.feature_dim},
              {repeated.row(1), repeated.row(1) + cfg.feature_dim},
              {repeated.row(2), repeated.row(2) + cfg.feature_dim}};
          for (std::size_t kind = 0; kind < rows.size(); ++kind)
            for (std::size_t step = 0; step < 2 * tokens; ++step) {
              const std::size_t copies =
                  step < tokens ? step : 2 * tokens - 1 - step;
              SCOPED_TRACE(::testing::Message()
                           << (attention ? "attention" : "mlp") << " embed "
                           << embed << " ffn " << ffn << " slots " << slots
                           << " row kind " << kind << " copies " << copies);
              nn::Tensor s = bases[step % 2];
              for (std::size_t r = tokens - 1 - copies; r < tokens; ++r)
                std::copy(rows[kind].begin(), rows[kind].end(), s.row(r));
              expect_same_bits(net.infer(s, ws), reference(s));
            }
        }
}

TEST(QNetworkInfer, RejectsWrongShapes) {
  util::Rng rng(32);
  QNetworkConfig cfg;
  cfg.feature_dim = 6;
  cfg.num_slots = 4;
  cfg.embed_dim = 8;
  cfg.ffn_dim = 16;
  const QNetwork net(cfg, rng);
  InferWorkspace ws(cfg);
  EXPECT_THROW((void)net.infer(nn::Tensor(5, 6), ws), util::CheckError);
  EXPECT_THROW((void)net.infer(nn::Tensor(6, 7), ws), util::CheckError);
  QNetworkConfig other = cfg;
  other.num_slots = 5;
  InferWorkspace wrong(other);
  EXPECT_THROW((void)net.infer(nn::Tensor(6, 6), wrong), util::CheckError);
}

/// Distance in units in the last place between two finite floats.
std::int64_t ulp_distance(float a, float b) {
  const auto ordered = [](float v) {
    const auto i = static_cast<std::int64_t>(
        static_cast<std::int32_t>(bits_of(v)));
    return i < 0 ? std::int64_t{INT32_MIN} - i : i;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

struct GoldenLine {
  std::uint64_t hash = 0;
  std::size_t attention_action = 0;
  std::size_t mlp_action = 0;
  std::vector<float> attention_q, mlp_q;
};

std::vector<GoldenLine> read_golden(std::size_t actions) {
  std::ifstream in(RL_GOLDEN_FILE);
  EXPECT_TRUE(in.good()) << "cannot open " << RL_GOLDEN_FILE;
  std::vector<GoldenLine> lines;
  std::string text;
  while (std::getline(in, text)) {
    if (text.empty() || text[0] == '#') continue;
    std::istringstream row(text);
    GoldenLine g;
    row >> std::hex >> g.hash >> std::dec >> g.attention_action >>
        g.mlp_action >> std::hex;
    for (std::vector<float>* q : {&g.attention_q, &g.mlp_q})
      for (std::size_t i = 0; i < actions; ++i) {
        std::uint32_t b = 0;
        row >> b;
        float v = 0.0F;
        std::memcpy(&v, &b, sizeof v);
        q->push_back(v);
      }
    EXPECT_FALSE(row.fail()) << "malformed golden line: " << text;
    lines.push_back(std::move(g));
  }
  return lines;
}

// The Q-values forward() produced before infer and the shared gemm kernel
// existed; infer must match them and forward must match infer bit for bit.
// Actions must match exactly; each Q-value within 4 ulp. That is
// room for an isolated last-bit difference in another machine's libm expf,
// not for a changed summation order: reversing gemm's k loop moves 988 of
// the 2,500 Q-values past it, by up to 2,448 ulp. It does not absorb a libm
// whose expf rounds differently on many inputs (nudging one expf result in
// 16 by 1 ulp moves Q-values by up to 422 ulp); on such a platform,
// regenerate the file. A changed state hash means the encoder or simulator
// moved, not the network: regenerate with make_infer_golden.
TEST(QNetworkInfer, MatchesParentGolden) {
  constexpr std::int64_t kMaxUlp = 4;
  util::Rng attention_rng(golden::kNetworkSeed);
  QNetwork attention(golden::network_config(true), attention_rng);
  util::Rng mlp_rng(golden::kNetworkSeed);
  QNetwork mlp(golden::network_config(false), mlp_rng);
  InferWorkspace attention_ws(attention.config());
  InferWorkspace mlp_ws(mlp.config());

  const std::vector<GoldenLine> lines = read_golden(attention.num_actions());
  ASSERT_EQ(lines.size(), golden::kStates);
  std::size_t step = 0;
  golden::run_episode([&](const core::EncodedState& state) {
    const GoldenLine& g = lines.at(step);
    SCOPED_TRACE(::testing::Message() << "state " << step);
    ++step;
    EXPECT_EQ(golden::state_hash(state), g.hash)
        << "the encoded episode changed; regenerate the golden file";
    const auto check = [&](QNetwork& net, InferWorkspace& ws,
                           std::size_t action, const std::vector<float>& want) {
      const nn::Tensor& q = net.infer(state.tokens, ws);
      expect_same_bits(q, net.forward(state.tokens));
      EXPECT_EQ(masked_argmax(q, state.mask).value_or(SIZE_MAX), action);
      for (std::size_t i = 0; i < q.size(); ++i)
        EXPECT_LE(ulp_distance(q.data()[i], want[i]), kMaxUlp)
            << "Q[" << i << "] = " << q.data()[i] << ", golden " << want[i];
    };
    check(attention, attention_ws, g.attention_action, g.attention_q);
    check(mlp, mlp_ws, g.mlp_action, g.mlp_q);
    return g.attention_action;  // the recorded action drives the episode
  });
  EXPECT_EQ(step, golden::kStates);
}

TEST(QNetworkInfer, ConcurrentCallsOnOneNetworkMatchSerial) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 5;
  util::Rng rng(33);
  const QNetworkConfig cfg = golden::network_config(true);
  const QNetwork net(cfg, rng);
  const std::vector<nn::Tensor> states = random_states(cfg, 8, rng);
  std::vector<nn::Tensor> serial;
  InferWorkspace ws(cfg);
  for (const nn::Tensor& s : states) serial.push_back(net.infer(s, ws));

  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      InferWorkspace own(cfg);
      for (std::size_t round = 0; round < kRounds; ++round)
        for (std::size_t i = 0; i < states.size(); ++i) {
          // Threads walk the states from different offsets.
          const std::size_t k = (i + t) % states.size();
          const nn::Tensor& q = net.infer(states[k], own);
          if (std::memcmp(q.data(), serial[k].data(),
                          q.size() * sizeof(float)) != 0)
            ++mismatches[t];
        }
    });
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[t], 0U) << "thread " << t;
}

}  // namespace
}  // namespace mlcr::rl
