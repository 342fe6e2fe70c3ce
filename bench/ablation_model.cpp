// Ablation of the two DQN optimizations the paper motivates in Sec. IV-C:
//   1. multi-head attention (vs a per-token MLP of the same depth), and
//   2. the action mask (vs exploring and selecting over the full action set).
// Each variant is trained identically on the overall workload and evaluated
// at the Moderate pool size, alongside Greedy-Match and Random floors.
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace mlcr;
  auto options = benchtools::BenchOptions::parse_or_exit(argc, argv);
  const benchtools::Suite suite;

  const benchtools::TraceFactory factory = [&](util::Rng& rng) {
    return fstartbench::make_overall_workload(suite.bench, 400, rng);
  };
  util::Rng ref_rng(1000);
  const sim::Trace reference = factory(ref_rng);
  const double loose =
      fstartbench::estimate_loose_capacity_mb(suite.bench, reference);
  const auto pools = fstartbench::paper_pool_sizes(loose);
  const std::vector<double> train_pools = {pools.tight_mb, pools.moderate_mb,
                                           pools.loose_mb};

  struct Variant {
    std::string label;
    std::string tag;
    core::MlcrConfig cfg;
  };
  std::vector<Variant> variants;
  {
    Variant full{"MLCR (attention + mask)", "bench_overall",
                 core::make_default_mlcr_config()};
    variants.push_back(full);

    Variant no_attn = full;
    no_attn.label = "MLCR w/o attention (MLP)";
    no_attn.tag = "bench_ablation_mlp";
    no_attn.cfg.dqn.network.use_attention = false;
    variants.push_back(no_attn);

    Variant no_mask = full;
    no_mask.label = "MLCR w/o action mask";
    no_mask.tag = "bench_ablation_nomask";
    no_mask.cfg.encoder.mask_invalid_actions = false;
    variants.push_back(no_mask);
  }

  util::Table table({"variant", "total latency (s)", "cold starts"});
  for (const auto& v : variants) {
    const auto agent = benchtools::trained_agent(suite, v.tag, factory,
                                                 train_pools, v.cfg, options);
    const auto stats = benchtools::run_replications(
        suite, benchtools::mlcr_system_factory(agent, v.cfg.encoder), factory,
        pools.moderate_mb, options.reps, options.threads);
    table.add_row({v.label, util::Table::num(stats.total_latency_s.mean(), 1),
                   util::Table::num(stats.cold_starts.mean(), 1)});
  }
  const std::vector<benchtools::NamedSystem> baselines = {
      {"Greedy-Match", [] { return policies::make_greedy_match_system(); }},
      {"Random", [] { return policies::make_random_system(); }}};
  for (const auto& system : baselines) {
    const auto stats = benchtools::run_replications(
        suite, system.make, factory, pools.moderate_mb, options.reps,
        options.threads);
    table.add_row({system.name,
                   util::Table::num(stats.total_latency_s.mean(), 1),
                   util::Table::num(stats.cold_starts.mean(), 1)});
  }

  std::cout << "=== Ablation (Sec. IV-C): attention and mask contributions, "
               "Moderate pool, "
            << options.reps << " reps ===\n";
  table.print(std::cout);
  std::cout << "(expected shape: full MLCR <= either ablation <= Random; the "
               "mask chiefly accelerates training, the attention layers "
               "capture cross-container/workload structure)\n";
  return 0;
}
