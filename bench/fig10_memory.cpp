// Fig. 10 reproduction: peak warm-pool memory consumption and eviction
// counts under the Loose pool size. The paper's observation: the
// same-config baselines exhaust the pool and evict repeatedly, while the
// multi-level systems (Greedy-Match, MLCR) serve the same workload within a
// fraction of the pool because containers are repacked instead of
// accumulated.
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
  const auto pools = fstartbench::paper_pool_sizes(loose);

  const core::MlcrConfig cfg = core::make_default_mlcr_config();
  const auto agent = benchtools::trained_agent(
      suite, "bench_overall", factory,
      {pools.tight_mb, pools.moderate_mb, pools.loose_mb}, cfg, options);

  util::Table table({"system", "peak pool (MB)", "peak / Loose %",
                     "evictions", "total latency (s)"});
  for (const auto& system : benchtools::paper_systems(agent, &cfg.encoder)) {
    const auto stats = benchtools::run_replications(
        suite, system.make, factory, loose, options.reps, options.threads);
    table.add_row({system.name,
                   util::Table::num(stats.peak_pool_mb.mean(), 0),
                   util::Table::num(100.0 * stats.peak_pool_mb.mean() / loose,
                                    0),
                   util::Table::num(stats.evictions.mean(), 1),
                   util::Table::num(stats.total_latency_s.mean(), 1)});
  }

  std::cout << "=== Fig. 10: warm resource consumption under Loose pool ("
            << util::Table::num(loose, 0) << " MB, " << options.reps
            << " reps) ===\n";
  table.print(std::cout);
  std::cout << "(paper shape: LRU/FaasCache/KeepAlive fill the pool and "
               "evict; Greedy-Match uses the least memory; MLCR uses more "
               "than Greedy-Match but delivers the lowest latency)\n";
  return 0;
}
