// Quickstart: build FStartBench, generate a workload, run the four baseline
// warm-start systems, train a small MLCR model, and compare.
//
//   ./examples/quickstart [invocations] [train_episodes]
//
// This is the 5-minute tour of the library's public API:
//   fstartbench::make_benchmark / make_overall_workload  — workloads
//   policies::make_*_system / run_system                 — baselines
//   core::make_default_mlcr_config / train_agent         — the DRL scheduler
#include <iostream>
#include <memory>

#include "core/mlcr.hpp"
#include "core/trainer.hpp"
#include "fstartbench/benchmark.hpp"
#include "fstartbench/workloads.hpp"
#include "policies/runner.hpp"
#include "util/check.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace mlcr;

  // Whole non-negative decimals; anything else throws util::CheckError.
  const std::size_t invocations =
      argc > 1 ? util::parse_count(argv[1], "invocations") : 400;
  const std::size_t episodes =
      argc > 2 ? util::parse_count(argv[2], "train_episodes") : 24;
  MLCR_CHECK_MSG(invocations >= 1 && episodes >= 1,
                 "invocations and train_episodes must be at least 1");

  // 1. The benchmark: 13 functions with three-level package metadata.
  const fstartbench::Benchmark bench = fstartbench::make_benchmark();
  const sim::StartupCostModel cost(bench.catalog,
                                   fstartbench::default_cost_config());

  // 2. A workload: all 13 functions arriving as Poisson processes.
  util::Rng rng(2024);
  const sim::Trace trace =
      fstartbench::make_overall_workload(bench, invocations, rng);
  const double loose_mb = fstartbench::estimate_loose_capacity_mb(bench, trace);
  const auto pools = fstartbench::paper_pool_sizes(loose_mb);
  std::cout << "workload: " << trace.size() << " invocations over "
            << util::Table::num(trace.span_s(), 1) << " s; Loose pool = "
            << util::Table::num(loose_mb, 0) << " MB\n\n";

  const double pool_mb = pools.moderate_mb;  // paper's "Moderate" setting
  constexpr std::size_t kSlots = 24;  // MLCR's visible action slots

  // 3. Baselines.
  util::Table table({"system", "total latency (s)", "avg latency (s)",
                     "cold starts", "warm L1/L2/L3"});
  auto add_row = [&](const policies::EpisodeSummary& s) {
    table.add_row({s.scheduler, util::Table::num(s.total_latency_s, 1),
                   util::Table::num(s.average_latency_s, 2),
                   util::Table::num(s.cold_starts),
                   std::to_string(s.warm_l1) + "/" + std::to_string(s.warm_l2) +
                       "/" + std::to_string(s.warm_l3)});
  };
  for (const auto& make :
       {policies::make_lru_system, policies::make_faascache_system,
        policies::make_greedy_match_system}) {
    const auto spec = make();
    add_row(policies::run_system(spec, bench.functions, bench.catalog, cost,
                                 pool_mb, trace));
  }
  {
    const auto spec = policies::make_keepalive_system();
    add_row(policies::run_system(spec, bench.functions, bench.catalog, cost,
                                 pool_mb, trace));
  }

  // 4. Train MLCR offline (paper Algorithm 1) on this workload family.
  const core::MlcrConfig mlcr_cfg = core::make_default_mlcr_config(kSlots);
  auto agent = std::make_shared<rl::DqnAgent>(mlcr_cfg.dqn, util::Rng(7));
  const core::StateEncoder encoder(mlcr_cfg.encoder);

  sim::EnvConfig env_cfg;
  env_cfg.pool_capacity_mb = pool_mb;
  sim::ClusterEnv train_env(
      bench.functions, bench.catalog, cost, env_cfg,
      [] { return std::make_unique<containers::LruEviction>(); });

  std::vector<sim::Trace> train_traces;
  for (int i = 0; i < 4; ++i)
    train_traces.push_back(
        fstartbench::make_overall_workload(bench, invocations, rng));
  std::vector<const sim::Trace*> trace_ptrs;
  for (const auto& t : train_traces) trace_ptrs.push_back(&t);

  core::TrainerConfig train_cfg;
  train_cfg.episodes = episodes;
  std::cout << "training MLCR for " << episodes << " episodes ..."
            << std::endl;
  const auto report =
      core::train_agent(*agent, encoder, mlcr_cfg.reward_scale_s, {&train_env},
                        trace_ptrs, train_cfg);
  std::cout << "  first episode total latency: "
            << util::Table::num(report.episode_total_latency_s.front(), 1)
            << " s, last: "
            << util::Table::num(report.episode_total_latency_s.back(), 1)
            << " s (" << report.train_steps << " gradient steps)\n\n";

  // 5. Evaluate the trained model on the held-out trace.
  const auto mlcr_spec = core::make_mlcr_system(agent, mlcr_cfg.encoder);
  add_row(policies::run_system(mlcr_spec, bench.functions, bench.catalog, cost,
                               pool_mb, trace));

  table.print(std::cout);
  return 0;
}
