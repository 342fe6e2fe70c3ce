// Fig. 9 reproduction: cumulative total startup latency and cold starts
// along the arrival sequence, MLCR vs Greedy-Match, under the Loose pool.
// The paper's observation: Greedy-Match accumulates fewer cold starts but a
// higher total latency — local best-effort matches spend containers that
// MLCR preserves for more valuable future reuse.
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace mlcr;
  const auto options = benchtools::BenchOptions::parse_or_exit(argc, argv);
  const benchtools::Suite suite;

  const benchtools::TraceFactory factory = [&](util::Rng& rng) {
    return fstartbench::make_overall_workload(suite.bench, 400, rng);
  };
  util::Rng ref_rng(1000);
  const sim::Trace reference = factory(ref_rng);
  const double loose =
      fstartbench::estimate_loose_capacity_mb(suite.bench, reference);

  const core::MlcrConfig cfg = core::make_default_mlcr_config();
  const auto pools = fstartbench::paper_pool_sizes(loose);
  const auto agent = benchtools::trained_agent(
      suite, "bench_overall", factory,
      {pools.tight_mb, pools.moderate_mb, pools.loose_mb}, cfg, options);

  // One evaluation trace, same for both systems.
  util::Rng eval_rng(9000);
  const sim::Trace trace = factory(eval_rng);

  auto run_series = [&](const policies::SystemSpec& spec) {
    sim::EnvConfig env_cfg;
    env_cfg.pool_capacity_mb = loose;
    env_cfg.keep_alive_ttl_s = spec.keep_alive_ttl_s;
    sim::ClusterEnv env(suite.bench.functions, suite.bench.catalog, suite.cost,
                        env_cfg, spec.eviction_factory);
    (void)policies::run_episode(env, *spec.scheduler, trace);
    return std::pair(env.metrics().cumulative_latency(),
                     env.metrics().cumulative_cold_starts());
  };

  const auto greedy_spec = policies::make_greedy_match_system();
  const auto mlcr_spec = core::make_mlcr_system(agent, cfg.encoder);
  const auto [g_lat, g_cold] = run_series(greedy_spec);
  const auto [m_lat, m_cold] = run_series(*&mlcr_spec);

  util::Table table({"invocation", "Greedy latency (s)", "MLCR latency (s)",
                     "Greedy cold", "MLCR cold"});
  for (std::size_t i = 24; i < trace.size(); i += 25) {
    table.add_row({std::to_string(i + 1), util::Table::num(g_lat[i], 1),
                   util::Table::num(m_lat[i], 1), std::to_string(g_cold[i]),
                   std::to_string(m_cold[i])});
  }
  std::cout << "=== Fig. 9: cumulative startup latency and cold starts "
               "(Loose pool) ===\n";
  table.print(std::cout);
  std::cout << "final: Greedy-Match " << util::Table::num(g_lat.back(), 1)
            << " s / " << g_cold.back() << " cold; MLCR "
            << util::Table::num(m_lat.back(), 1) << " s / " << m_cold.back()
            << " cold\n"
            << "(paper shape: MLCR ends with lower total latency even where "
               "Greedy-Match has fewer cold starts)\n";
  return 0;
}
