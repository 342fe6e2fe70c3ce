// The fixed episode behind tests/rl/infer_golden.txt, shared by the file's
// generator (make_infer_golden) and the test that checks QNetwork::infer and
// forward against it. Uses only QNetwork::forward-era API, so the generator
// builds at any commit that has it and the file pins the arithmetic against
// the commit that produced it, not only against itself.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>

#include "containers/pool.hpp"
#include "core/mlcr.hpp"
#include "fstartbench/benchmark.hpp"
#include "fstartbench/workloads.hpp"
#include "sim/env.hpp"

namespace mlcr::rl::golden {

inline constexpr std::size_t kStates = 50;
inline constexpr std::uint64_t kNetworkSeed = 2024;
inline constexpr std::uint64_t kTraceSeed = 7;

/// The MLCR default network (24 slots, embed 48, ffn 96), attention or the
/// MLP ablation.
[[nodiscard]] inline QNetworkConfig network_config(bool use_attention) {
  QNetworkConfig cfg = core::make_default_mlcr_config().dqn.network;
  cfg.use_attention = use_attention;
  return cfg;
}

/// FNV-1a over the token bits and the mask: names the state a golden line
/// was computed on, so an encoder or simulator change reads as such.
[[nodiscard]] inline std::uint64_t state_hash(const core::EncodedState& s) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t i = 0; i < s.tokens.size(); ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, s.tokens.data() + i, sizeof bits);
    mix(bits);
  }
  for (const auto m : s.mask) mix(static_cast<std::uint32_t>(m));
  return h;
}

/// Encode the first kStates states of a seeded 400-invocation overall
/// workload on one LRU node with the Moderate pool. `act` sees each state
/// and returns the action index the node then takes.
inline void run_episode(
    const std::function<std::size_t(const core::EncodedState&)>& act) {
  const fstartbench::Benchmark bench = fstartbench::make_benchmark();
  const sim::StartupCostModel cost(bench.catalog,
                                   fstartbench::default_cost_config());
  util::Rng ref_rng(1000);
  const double loose = fstartbench::estimate_loose_capacity_mb(
      bench, fstartbench::make_overall_workload(bench, 400, ref_rng));
  util::Rng rng(kTraceSeed);
  const sim::Trace trace = fstartbench::make_overall_workload(bench, 400, rng);
  sim::EnvConfig env_cfg;
  env_cfg.pool_capacity_mb = fstartbench::paper_pool_sizes(loose).moderate_mb;
  sim::ClusterEnv env(
      bench.functions, bench.catalog, cost, env_cfg,
      [] { return std::make_unique<containers::LruEviction>(); });
  env.reset(trace);
  const core::StateEncoder encoder(core::make_default_mlcr_config().encoder);
  double prev = trace.at(0).arrival_s;
  for (std::size_t i = 0; i < kStates && !env.done(); ++i) {
    const sim::Invocation inv = env.current();
    const core::EncodedState state = encoder.encode(env, inv, prev);
    prev = inv.arrival_s;
    (void)env.step(encoder.to_sim_action(state, act(state)));
  }
}

}  // namespace mlcr::rl::golden
