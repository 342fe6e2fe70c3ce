#include <cmath>

#include "containers/pool.hpp"
#include "fstartbench/workloads.hpp"
#include "model.hpp"
#include "sim/env.hpp"

namespace perfbench {

using namespace mlcr;

std::shared_ptr<rl::DqnAgent> load_agent(const std::string& path) {
  const core::MlcrConfig cfg = core::make_default_mlcr_config();
  auto agent = std::make_shared<rl::DqnAgent>(cfg.dqn, util::Rng(42));
  agent->load(path);
  return agent;
}

QScan scan_q_values(rl::DqnAgent& agent, const fstartbench::Benchmark& bench,
                    const sim::StartupCostModel& cost, double pool_mb,
                    const sim::Trace& trace) {
  const core::StateEncoder encoder(core::make_default_mlcr_config().encoder);
  sim::EnvConfig env_cfg;
  env_cfg.pool_capacity_mb = pool_mb;
  sim::ClusterEnv env(
      bench.functions, bench.catalog, cost, env_cfg,
      [] { return std::make_unique<containers::LruEviction>(); });
  env.reset(trace);
  QScan scan;
  double prev = trace.empty() ? 0.0 : trace.at(0).arrival_s;
  while (!env.done()) {
    const sim::Invocation& inv = env.current();
    const core::EncodedState state = encoder.encode(env, inv, prev);
    const nn::Tensor q = agent.q_values(state.tokens);
    bool finite = true;
    for (std::size_t i = 0; i < q.size(); ++i)
      finite = finite && std::isfinite(q.data()[i]);
    ++scan.states;
    if (!finite) ++scan.nonfinite;
    // Act as the MLCR scheduler would; a state with no usable Q-value falls
    // back to a cold start.
    const auto best = rl::masked_argmax(q, state.mask);
    prev = inv.arrival_s;
    (void)env.step(best ? encoder.to_sim_action(state, *best)
                        : sim::Action::cold());
  }
  return scan;
}

QScan check_model_file(const std::string& path, std::uint64_t seed) {
  const fstartbench::Benchmark bench = fstartbench::make_benchmark();
  const sim::StartupCostModel cost(bench.catalog,
                                   fstartbench::default_cost_config());
  util::Rng ref_rng(1000);
  const double loose = fstartbench::estimate_loose_capacity_mb(
      bench, fstartbench::make_overall_workload(bench, 400, ref_rng));
  util::Rng rng(seed);
  const sim::Trace trace = fstartbench::make_overall_workload(bench, 400, rng);
  const auto agent = load_agent(path);
  return scan_q_values(*agent, bench, cost,
                       fstartbench::paper_pool_sizes(loose).moderate_mb, trace);
}

}  // namespace perfbench
