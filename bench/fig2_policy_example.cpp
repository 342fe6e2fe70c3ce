// Fig. 2 reproduction: the best-effort policy (Policy1, greedy matching) is
// not optimal for a stream of invocations. Two warm containers exist; the
// first arrival has a "best" container that a later arrival needs more.
// Policy2 is the exhaustive oracle plan.
#include <iostream>

#include "common.hpp"
#include "policies/oracle.hpp"

int main(int argc, char** argv) {
  using namespace mlcr;
  const auto bench_options =
      benchtools::BenchOptions::parse_or_exit(argc, argv);
  const benchtools::Suite suite;
  benchtools::ObsSession obs_session(bench_options);
  const auto& bench = suite.bench;

  // Prologue (t=0, t=1): F5 (debian/python/flask) and F6 (…+numpy) cold-start
  // and park their containers: these are the paper's C2 and C1.
  // Interesting arrivals: F7 (…+numpy+pandas) at t=60 and F6 again at t=65.
  // Greedy matches F7 to the most-recently-idle L2 container — C1, F6's —
  // destroying the full match F6 needed five seconds later.
  const auto f5 = bench.by_paper_id(5);
  const auto f6 = bench.by_paper_id(6);
  const auto f7 = bench.by_paper_id(7);
  std::vector<sim::Invocation> invs;
  auto push = [&](sim::FunctionTypeId fn, double at) {
    sim::Invocation inv;
    inv.function = fn;
    inv.arrival_s = at;
    inv.exec_s = 0.5;
    invs.push_back(inv);
  };
  push(f5, 0.0);
  push(f6, 1.0);
  push(f7, 60.0);
  push(f6, 65.0);
  const sim::Trace trace{std::move(invs)};

  sim::EnvConfig cfg;
  cfg.pool_capacity_mb = 4096.0;
  const auto lru_factory = [] {
    return std::make_unique<containers::LruEviction>();
  };

  // The greedy episode doubles as the CI trace-smoke workload: with --trace
  // it emits the full lifecycle (match / repack / startup / exec, pool
  // events) for these four invocations — two warm reuses included.
  const benchtools::NamedSystem greedy_system{
      "Greedy-Match", [] { return policies::make_greedy_match_system(); }};
  const auto greedy = benchtools::trace_episode(
      obs_session, suite, greedy_system,
      [&](util::Rng&) { return trace; }, cfg.pool_capacity_mb);
  const auto oracle = policies::exhaustive_best_plan(
      bench.functions, bench.catalog, suite.cost, cfg, lru_factory, trace);

  // Reference costs for the paper-style options table.
  const auto& fn7 = bench.functions.get(f7);
  const auto& fn6 = bench.functions.get(f6);
  util::Table options({"invocation", "cold (s)", "warm via C1=F6 cont. (s)",
                       "warm via C2=F5 cont. (s)"});
  options.add_row(
      {"F7", util::Table::num(suite.cost.cold_start(fn7).total(), 2),
       util::Table::num(
           suite.cost.warm_start(fn7, containers::MatchLevel::kL2).total(), 2),
       util::Table::num(
           suite.cost.warm_start(fn7, containers::MatchLevel::kL2).total(),
           2)});
  options.add_row(
      {"F6", util::Table::num(suite.cost.cold_start(fn6).total(), 2),
       util::Table::num(
           suite.cost.warm_start(fn6, containers::MatchLevel::kL3).total(), 2),
       util::Table::num(
           suite.cost.warm_start(fn6, containers::MatchLevel::kL2).total(),
           2)});

  std::cout << "=== Fig. 2: greedy best-effort vs globally optimal ===\n";
  options.print(std::cout);

  util::Table totals({"policy", "total startup latency (s)"});
  totals.add_row({"Policy1 (Greedy-Match)",
                  util::Table::num(greedy.total_latency_s, 2)});
  totals.add_row({"Policy2 (oracle plan)",
                  util::Table::num(oracle.total_latency_s, 2)});
  totals.print(std::cout);
  std::cout << "oracle explored " << oracle.nodes_explored
            << " plan nodes; greedy is "
            << util::Table::num(
                   greedy.total_latency_s - oracle.total_latency_s, 2)
            << " s worse (paper: Policy1 suboptimal by construction)\n";

  obs_session.finish();
  if (!bench_options.trace_path.empty())
    std::cout << "trace written to " << bench_options.trace_path << "\n";
  if (!bench_options.metrics_path.empty())
    std::cout << "metrics written to " << bench_options.metrics_path << "\n";
  return greedy.total_latency_s + 1e-9 < oracle.total_latency_s ? 1 : 0;
}
