// Fleet scaling study: node count × router policy on the FStartBench
// overall workload. The cluster-wide warm memory budget is fixed (Moderate,
// Sec. VI-A) and divided evenly across nodes, so adding nodes fragments the
// warm pool: whether multi-level reuse survives depends entirely on the
// router. Expected shape: package-affinity (Hash-Affinity) and Warm-Aware
// routing keep invocations near compatible containers and degrade slowly,
// while Random/Round-Robin scatter them and destroy the reuse the paper's
// Table-I matching makes possible.
#include <iostream>

#include "common.hpp"
#include "fleet/fleet_env.hpp"
#include "fleet/router.hpp"

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
  const double cluster_mb = pools.moderate_mb;

  const std::vector<std::size_t> node_counts = {1, 2, 4, 8};
  const auto routers = fleet::standard_routers(/*seed=*/7);

  std::cout << "=== fleet scaling: Greedy-Match nodes, cluster budget "
            << util::Table::num(cluster_mb, 0) << " MB split across nodes, "
            << options.reps << " reps ===\n";

  // mean total latency per (router, node count), for the closing comparison
  std::vector<std::vector<double>> latency_grid(routers.size());

  for (const std::size_t nodes : node_counts) {
    util::Table table({"router", "total latency (s)", "cold", "L1", "L2",
                       "L3", "imbalance"});
    for (std::size_t ri = 0; ri < routers.size(); ++ri) {
      const auto& router_spec = routers[ri];

      // Replications: one split Rng per rep, fresh fleet + router per rep,
      // folded in rep order (same discipline as run_replications).
      std::vector<util::Rng> rep_rngs;
      util::Rng root(9000);
      for (std::size_t r = 0; r < options.reps; ++r)
        rep_rngs.push_back(root.split());
      std::vector<fleet::FleetSummary> results(options.reps);
      const auto run_one = [&](std::size_t r) {
        util::Rng rng = rep_rngs[r];
        const sim::Trace trace = factory(rng);
        fleet::FleetConfig cfg;
        cfg.nodes = nodes;
        cfg.node_env.pool_capacity_mb =
            cluster_mb / static_cast<double>(nodes);
        cfg.seed = 100 + r;
        fleet::FleetEnv env(
            suite.bench.functions, suite.bench.catalog, suite.cost, cfg,
            fleet::uniform_system(policies::make_greedy_match_system));
        const auto router = router_spec.make();
        results[r] = env.run(trace, *router);
      };
      if (options.threads == 1) {
        for (std::size_t r = 0; r < options.reps; ++r) run_one(r);
      } else {
        util::ThreadPool pool(options.threads);
        pool.parallel_for(options.reps, run_one);
      }

      util::RunningStats latency, cold, l1, l2, l3, imbalance;
      for (const auto& fs : results) {
        latency.add(fs.total.total_latency_s);
        cold.add(static_cast<double>(fs.total.cold_starts));
        l1.add(static_cast<double>(fs.total.warm_l1));
        l2.add(static_cast<double>(fs.total.warm_l2));
        l3.add(static_cast<double>(fs.total.warm_l3));
        imbalance.add(fs.routing_imbalance);
      }
      latency_grid[ri].push_back(latency.mean());
      table.add_row({router_spec.name, util::Table::num(latency.mean(), 1),
                     util::Table::num(cold.mean(), 1),
                     util::Table::num(l1.mean(), 1),
                     util::Table::num(l2.mean(), 1),
                     util::Table::num(l3.mean(), 1),
                     util::Table::num(imbalance.mean(), 2)});
    }
    std::cout << "\n--- " << nodes << " node(s), "
              << util::Table::num(cluster_mb / static_cast<double>(nodes), 0)
              << " MB per node ---\n";
    table.print(std::cout);
  }

  // Closing comparison at the largest fleet: how much of random routing's
  // startup latency do the reuse-aware policies shave off?
  const std::size_t last = node_counts.size() - 1;
  const double random_latency = latency_grid[0][last];
  std::cout << "\nat " << node_counts[last] << " nodes vs Random routing:\n";
  for (std::size_t ri = 1; ri < routers.size(); ++ri) {
    const double pct = 100.0 * (1.0 - latency_grid[ri][last] / random_latency);
    std::cout << "  " << routers[ri].name << ": "
              << util::Table::num(pct, 0) << "% lower total startup latency\n";
  }
  return 0;
}
