// Fig. 8 reproduction: total startup latency (8a) and cold-start counts (8b)
// of the five systems under Tight / Moderate / Loose warm-pool sizes, on the
// overall workload (400 invocations of all 13 functions, Poisson arrivals).
// Results are means over --reps independently generated traces (default 7;
// the paper uses 50 — pass --reps 50 to match).
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace mlcr;
  const auto options = benchtools::BenchOptions::parse_or_exit(argc, argv);
  const benchtools::Suite suite;
  benchtools::ObsSession obs_session(options);

  const benchtools::TraceFactory factory = [&](util::Rng& rng) {
    return fstartbench::make_overall_workload(suite.bench, 400, rng);
  };

  // Pool sizes are derived from a reference trace (Sec. VI-A: Loose = peak
  // memory with nothing evicted; Tight = Loose/5, Moderate = Loose/2).
  util::Rng ref_rng(1000);
  const sim::Trace reference = factory(ref_rng);
  const double loose =
      fstartbench::estimate_loose_capacity_mb(suite.bench, reference);
  const auto pools = fstartbench::paper_pool_sizes(loose);
  std::cout << "Loose pool = " << util::Table::num(pools.loose_mb, 0)
            << " MB, Moderate = " << util::Table::num(pools.moderate_mb, 0)
            << " MB, Tight = " << util::Table::num(pools.tight_mb, 0)
            << " MB; " << options.reps << " reps\n";

  const core::MlcrConfig cfg = core::make_default_mlcr_config();
  const auto agent = benchtools::trained_agent(
      suite, "bench_overall", factory,
      {pools.tight_mb, pools.moderate_mb, pools.loose_mb}, cfg, options);

  const struct {
    const char* name;
    double mb;
  } sizes[] = {{"Tight", pools.tight_mb},
               {"Moderate", pools.moderate_mb},
               {"Loose", pools.loose_mb}};

  util::Table latency({"system", "Tight (s)", "Moderate (s)", "Loose (s)"});
  util::Table colds({"system", "Tight", "Moderate", "Loose"});
  struct Cell {
    double latency = 0.0, cold = 0.0;
  };
  std::vector<std::vector<Cell>> grid;

  const auto systems = benchtools::paper_systems(agent, &cfg.encoder);
  for (const auto& system : systems) {
    // Wall-time self-profiling of each system's replication sweep.
    benchtools::BenchSpan sweep(obs_session, "stats:" + system.name);
    std::vector<Cell> row;
    std::vector<std::string> lat_cells = {system.name};
    std::vector<std::string> cold_cells = {system.name};
    for (const auto& size : sizes) {
      const auto stats = benchtools::run_replications(
          suite, system.make, factory, size.mb, options.reps,
          options.threads);
      row.push_back({stats.total_latency_s.mean(), stats.cold_starts.mean()});
      lat_cells.push_back(util::Table::num(stats.total_latency_s.mean(), 1));
      cold_cells.push_back(util::Table::num(stats.cold_starts.mean(), 1));
    }
    grid.push_back(std::move(row));
    latency.add_row(std::move(lat_cells));
    colds.add_row(std::move(cold_cells));
  }

  // One fully-traced episode per system at the Moderate pool: lifecycle
  // spans (match / repack / startup / exec), pool events, DQN inference
  // profiling, and the per-system latency histograms behind --metrics.
  if (obs_session.tracing() || !options.metrics_path.empty()) {
    std::uint32_t track = 0;
    for (const auto& system : systems)
      (void)benchtools::trace_episode(obs_session, suite, system, factory,
                                      pools.moderate_mb, track++);
  }

  std::cout << "\n=== Fig. 8a: total startup latency of 400 invocations ===\n";
  latency.print(std::cout);
  std::cout << "\n=== Fig. 8b: number of cold starts ===\n";
  colds.print(std::cout);

  // Paper-reported reductions of MLCR vs each baseline, per pool size.
  util::Table reductions({"vs", "Tight", "Moderate", "Loose"});
  const auto& mlcr_row = grid.back();
  for (std::size_t sys = 0; sys + 1 < systems.size(); ++sys) {
    std::vector<std::string> cells = {systems[sys].name};
    for (std::size_t p = 0; p < 3; ++p)
      cells.push_back(util::Table::num(
          100.0 * (1.0 - mlcr_row[p].latency / grid[sys][p].latency), 0) +
          "%");
    reductions.add_row(std::move(cells));
  }
  std::cout << "\n=== MLCR latency reduction (paper: 38-57% vs LRU, 47-53% vs "
               "FaasCache, 48-52% vs KeepAlive, 22-48% vs Greedy-Match) ===\n";
  reductions.print(std::cout);

  obs_session.finish();
  if (!options.trace_path.empty())
    std::cout << "\ntrace written to " << options.trace_path
              << " (load in Perfetto / chrome://tracing)\n";
  if (!options.metrics_path.empty())
    std::cout << "metrics written to " << options.metrics_path << "\n";
  return 0;
}
