// Fleet event-core throughput: invocations/sec vs node count for the
// event-driven FleetEnv::run. The event core pops one node off a
// time-ordered heap per event (O(log nodes)), so throughput should fall
// only slowly as the fleet grows. The sweep runs 1 -> 1000 nodes; with
// --json the largest-fleet row is written as a BENCH_fleet_throughput.json
// perf-trajectory point for benchdiff.
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "fleet/fleet_env.hpp"
#include "fleet/router.hpp"
#include "util/wall_clock.hpp"

namespace {

struct SweepPoint {
  std::size_t nodes = 0;
  double event_ms = 0.0;
  double events_per_sec = 0.0;
  std::size_t lost = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mlcr;
  // --stress: append a 10M-invocation, 1000-node pass — the second
  // perf-trajectory point in BENCH_fleet_throughput.json. Stripped before
  // BenchOptions::parse (it is specific to this bench).
  bool stress = false;
  std::vector<char*> args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--stress")
      stress = true;
    else
      args.push_back(argv[i]);
  }
  const auto options =
      benchtools::BenchOptions::parse(static_cast<int>(args.size()),
                                      args.data());
  const benchtools::Suite suite;

  // Workload scales with --reps so the tiny CI smoke run stays cheap:
  // reps=1 -> 2k invocations, the default reps=5 -> 10k.
  const std::size_t invocations = 2000 * options.reps;
  util::Rng trace_rng(1000);
  const sim::Trace trace = fstartbench::make_overall_workload(
      suite.bench, invocations, trace_rng);
  const double loose =
      fstartbench::estimate_loose_capacity_mb(suite.bench, trace);
  const double cluster_mb = fstartbench::paper_pool_sizes(loose).moderate_mb;

  const std::vector<std::size_t> node_counts = {1, 10, 100, 1000};
  const std::string router_name = "Least-Outstanding";

  const auto make_env = [&](std::size_t nodes) {
    fleet::FleetConfig cfg;
    cfg.nodes = nodes;
    cfg.node_env.pool_capacity_mb = cluster_mb / static_cast<double>(nodes);
    cfg.seed = 100;
    return fleet::FleetEnv(
        suite.bench.functions, suite.bench.catalog, suite.cost, cfg,
        fleet::uniform_system(policies::make_greedy_match_system));
  };

  std::cout << "=== fleet throughput: event-driven run, " << invocations
            << " invocations, " << router_name << " routing ===\n";
  util::Table table({"nodes", "event (ms)", "inv/sec", "lost"});
  std::vector<SweepPoint> points;

  for (const std::size_t nodes : node_counts) {
    SweepPoint p;
    p.nodes = nodes;
    fleet::FleetEnv env = make_env(nodes);
    fleet::LeastOutstandingRouter router;
    // Warm-up pass so first-touch allocation noise lands outside the timed
    // run; the timed pass repeats the identical deterministic run.
    env.run(trace, router);
    const std::int64_t t0 = util::wall_now_us();
    const fleet::FleetSummary summary = env.run(trace, router);
    const std::int64_t t1 = util::wall_now_us();
    p.event_ms = static_cast<double>(t1 - t0) / 1000.0;
    p.lost = summary.lost;
    p.events_per_sec =
        p.event_ms > 0.0
            ? 1000.0 * static_cast<double>(invocations) / p.event_ms
            : 0.0;
    points.push_back(p);

    table.add_row({std::to_string(nodes), util::Table::num(p.event_ms, 2),
                   util::Table::num(p.events_per_sec, 0),
                   std::to_string(p.lost)});
  }
  table.print(std::cout);

  const SweepPoint& last = points.back();

  // Stress pass: one event-driven run of 10M invocations over 1000 nodes.
  // CI's perf-smoke never runs it (the checked-in baseline carries the
  // stress_* metrics; benchdiff skips metrics absent from the candidate),
  // but the numbers pin the large-scale trajectory point deliberately.
  SweepPoint stress_point;
  if (stress) {
    const std::size_t stress_invocations = 10'000'000;
    const std::size_t stress_nodes = 1000;
    std::cout << "\n=== stress: " << stress_invocations << " invocations, "
              << stress_nodes << " nodes ===\n";
    util::Rng stress_rng(2000);
    const sim::Trace stress_trace = fstartbench::make_overall_workload(
        suite.bench, stress_invocations, stress_rng);
    const double stress_loose =
        fstartbench::estimate_loose_capacity_mb(suite.bench, stress_trace);
    fleet::FleetConfig cfg;
    cfg.nodes = stress_nodes;
    cfg.node_env.pool_capacity_mb =
        fstartbench::paper_pool_sizes(stress_loose).moderate_mb /
        static_cast<double>(stress_nodes);
    cfg.seed = 100;
    fleet::FleetEnv env(suite.bench.functions, suite.bench.catalog,
                        suite.cost, cfg,
                        fleet::uniform_system(
                            policies::make_greedy_match_system));
    fleet::LeastOutstandingRouter router;
    const std::int64_t t0 = util::wall_now_us();
    const fleet::FleetSummary summary = env.run(stress_trace, router);
    const std::int64_t t1 = util::wall_now_us();
    stress_point.nodes = stress_nodes;
    stress_point.event_ms = static_cast<double>(t1 - t0) / 1000.0;
    stress_point.events_per_sec =
        1000.0 * static_cast<double>(stress_invocations) /
        stress_point.event_ms;
    stress_point.lost = summary.lost;
    std::cout << util::Table::num(stress_point.event_ms, 0) << " ms, "
              << util::Table::num(stress_point.events_per_sec, 0)
              << " inv/sec, lost " << stress_point.lost << "\n";
  }

  if (!options.json_path.empty()) {
    benchtools::BenchJson out("fleet_throughput");
    out.config("nodes", last.nodes);
    out.config("invocations", invocations);
    out.config("router", router_name);
    out.wall_ms(last.event_ms);
    out.events_per_sec(last.events_per_sec);
    out.metric("lost", static_cast<double>(last.lost));
    if (stress) {
      out.metric("stress_invocations", 10'000'000.0);
      out.metric("stress_nodes", static_cast<double>(stress_point.nodes));
      out.metric("stress_events_per_sec", stress_point.events_per_sec);
      out.metric("stress_lost", static_cast<double>(stress_point.lost));
    }
    if (!out.write(options.json_path)) return 1;
    std::cout << "wrote " << options.json_path << "\n";
  }
  return 0;
}
