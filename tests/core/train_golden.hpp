// The fixed training run behind tests/core/train_golden.txt, shared by the
// file's generator (make_train_golden) and the test that checks train_agent
// against it. Uses only TrainerConfig{episodes, seed, train_every},
// train_agent and DqnAgent::snapshot_weights, so the generator builds at any
// commit that has them and the file pins training against the commit that
// produced it, not only against itself.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/mlcr.hpp"
#include "core/trainer.hpp"
#include "rl/dqn.hpp"
#include "testing/fixtures.hpp"

namespace mlcr::core::golden {

inline constexpr std::uint64_t kNetworkSeed = 2;
inline constexpr std::uint64_t kTrainSeed = 11;
inline constexpr std::size_t kEpisodes = 8;
inline constexpr std::size_t kTrainEvery = 2;

/// A 4-slot, 16-wide MLCR network with a small replay warm-up, attention or
/// the MLP ablation.
[[nodiscard]] inline MlcrConfig mlcr_config(bool use_attention) {
  MlcrConfig cfg = make_default_mlcr_config(/*num_slots=*/4,
                                            /*embed_dim=*/16);
  cfg.dqn.network.ffn_dim = 32;
  cfg.dqn.network.use_attention = use_attention;
  cfg.dqn.batch_size = 8;
  cfg.dqn.min_replay = 32;
  return cfg;
}

/// `rounds` repetitions of py-flask, py-numpy, js-express, 30 s apart: L2
/// and L1 reuse chances on every round.
[[nodiscard]] inline sim::Trace cycle_trace(const testing::TinyWorld& world,
                                            int rounds) {
  std::vector<sim::Invocation> invs;
  double t = 0.0;
  for (int r = 0; r < rounds; ++r) {
    invs.push_back(testing::TinyWorld::inv(world.fn_py_flask, t, 0.5));
    invs.push_back(testing::TinyWorld::inv(world.fn_py_numpy, t + 30.0, 0.5));
    invs.push_back(testing::TinyWorld::inv(world.fn_js, t + 60.0, 0.5));
    t += 90.0;
  }
  return sim::Trace(std::move(invs));
}

/// The 64 bits of a double or a digest as 16 hex digits.
template <typename T>
[[nodiscard]] inline std::string hex_bits(T value) {
  static_assert(sizeof(T) == sizeof(std::uint64_t));
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, bits);
  return buf;
}

/// FNV-1a over a tensor's float bits.
[[nodiscard]] inline std::uint64_t tensor_digest(const nn::Tensor& t) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < t.size(); ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, t.data() + i, sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// Train the seeded network on TinyWorld with the cycle trace and describe
/// the outcome, one `<network> <field> <values...>` line per field: step
/// counts, the chosen checkpoint, and the bits of the late loss, of every
/// episode and validation latency, and of every final weight tensor.
[[nodiscard]] inline std::vector<std::string> run_lines(bool use_attention) {
  const testing::TinyWorld world;
  const MlcrConfig cfg = mlcr_config(use_attention);
  rl::DqnAgent agent(cfg.dqn, util::Rng(kNetworkSeed));
  const StateEncoder encoder(cfg.encoder);
  auto env = world.make_env();
  const sim::Trace trace = cycle_trace(world, 8);

  TrainerConfig tc;
  tc.episodes = kEpisodes;
  tc.seed = kTrainSeed;
  tc.train_every = kTrainEvery;
  const TrainerReport report =
      train_agent(agent, encoder, cfg.reward_scale_s, {&env}, {&trace}, tc);

  std::vector<std::string> lines;
  const auto add = [&](const char* field,
                       const std::vector<std::string>& values) {
    std::string line = use_attention ? "attention " : "mlp ";
    line += field;
    for (const std::string& v : values) {
      line += ' ';
      line += v;
    }
    lines.push_back(std::move(line));
  };
  add("env_steps", {std::to_string(report.env_steps)});
  add("train_steps", {std::to_string(report.train_steps)});
  add("best_validation", {std::to_string(report.best_validation)});
  add("late_loss", {hex_bits(report.late_loss)});
  std::vector<std::string> values;
  for (const double s : report.episode_total_latency_s)
    values.push_back(hex_bits(s));
  add("episode_latency", values);
  values.clear();
  for (const double s : report.validation_latency_s)
    values.push_back(hex_bits(s));
  add("validation_latency", values);
  values.clear();
  for (const nn::Tensor& w : agent.snapshot_weights())
    values.push_back(hex_bits(tensor_digest(w)));
  add("weight_digests", values);
  return lines;
}

}  // namespace mlcr::core::golden
