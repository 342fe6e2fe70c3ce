// The fixed fleet matrix behind tests/fleet/fleet_golden.txt, shared by the
// file's generator (make_fleet_golden) and the tests that pin FleetEnv::run
// and SchedulerService::run_replay against it. Uses only the FleetEnv
// constructor, run(), standard_routers() and with_health_aware(), so the
// generator builds at any commit that has them and the file pins fleet
// routing against the commit that produced it, not only against itself.
//
// Scenarios: three fault modes crossed with two traces. The modes are a
// faultless fleet at 1, 3 and 8 nodes; independent crash windows with
// startup failures and retries on 4 nodes; and correlated domains with one
// partial crash and one cold spare. Each mode runs its own trace (the
// 200-invocation overall workload, or a steady TinyWorld trace through the
// domain crashes) and a TTL-heavy TinyWorld trace whose long gaps expire
// warm containers between bursts. Every scenario runs every standard
// router, bare and health-aware: one golden line per (scenario, router).
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "fleet/fleet_env.hpp"
#include "fleet/metrics.hpp"
#include "fleet/router.hpp"
#include "fstartbench/benchmark.hpp"
#include "fstartbench/workloads.hpp"
#include "policies/baselines.hpp"
#include "testing/fixtures.hpp"

namespace mlcr::fleet::golden {

/// Seed of the Random router (and of serve::RandomPolicy in the replay pin).
inline constexpr std::uint64_t kRouterSeed = 7;

/// Functions, catalog and cost model a scenario's fleet is built over.
struct World {
  const sim::FunctionTable* functions = nullptr;
  const containers::PackageCatalog* catalog = nullptr;
  const sim::StartupCostModel* cost = nullptr;
};

/// One (fault mode, trace) pair of the matrix.
struct Scenario {
  std::string name;
  World world;
  FleetConfig config;
  sim::Trace trace;
};

/// The bare standard routers, then each of them health-aware.
[[nodiscard]] inline std::vector<RouterSpec> routers() {
  std::vector<RouterSpec> specs = standard_routers(kRouterSeed);
  const std::size_t bare = specs.size();
  for (std::size_t i = 0; i < bare; ++i)
    specs.push_back(with_health_aware(specs[i]));
  return specs;
}

/// Owns the two worlds and builds the scenarios over them. Not copyable:
/// the scenarios point into it.
class Matrix {
 public:
  Matrix()
      : bench_(fstartbench::make_benchmark()),
        bench_cost_(bench_.catalog, fstartbench::default_cost_config()),
        tiny_cost_(tiny_.cost_model()) {
    const World bench{&bench_.functions, &bench_.catalog, &bench_cost_};
    const World tiny{&tiny_.functions, &tiny_.catalog, &tiny_cost_};
    const sim::Trace ttl = ttl_trace();

    util::Rng faultless_rng(33);
    const sim::Trace faultless_trace =
        fstartbench::make_overall_workload(bench_, 200, faultless_rng);
    for (const std::size_t nodes :
         {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
      FleetConfig cfg;
      cfg.nodes = nodes;
      cfg.node_env.pool_capacity_mb = 2400.0 / static_cast<double>(nodes);
      cfg.seed = 5;
      const std::string mode = "faultless-" + std::to_string(nodes);
      add(mode + "/overall", bench, cfg, faultless_trace);
      add(mode + "/ttl", tiny, cfg, ttl);
    }

    util::Rng crash_trace_rng(44);
    const sim::Trace crash_trace =
        fstartbench::make_overall_workload(bench_, 200, crash_trace_rng);
    FleetConfig crashes;
    crashes.nodes = 4;
    crashes.node_env.pool_capacity_mb = 700.0;
    crashes.seed = 9;
    crashes.faults.startup_failure_prob = 0.2;
    crashes.faults.retry.max_attempts = 3;
    util::Rng crash_rng(17);
    crashes.faults.crashes = faults::sample_crash_windows(
        crashes.nodes, crash_trace.span_s(), /*crashes_per_node=*/2.0,
        /*mean_downtime_s=*/40.0, /*max_concurrent_down=*/3, crash_rng);
    add("crashes/overall", bench, crashes, crash_trace);
    add("crashes/ttl", tiny, crashes, ttl);

    const FleetConfig domains = domain_config();
    add("domains/steady", tiny, domains, steady_trace());
    add("domains/ttl", tiny, domains, ttl);
  }
  Matrix(const Matrix&) = delete;
  Matrix& operator=(const Matrix&) = delete;

  [[nodiscard]] const std::vector<Scenario>& scenarios() const noexcept {
    return scenarios_;
  }

 private:
  void add(std::string name, const World& world, const FleetConfig& config,
           const sim::Trace& trace) {
    scenarios_.push_back({std::move(name), world, config, trace});
  }

  /// Sparse arrivals with gaps far beyond the keep-alive TTL: alternating
  /// tight bursts (warm reuse) and 900 s gaps (TTL expiry events).
  [[nodiscard]] sim::Trace ttl_trace() const {
    std::vector<sim::Invocation> invs;
    double t = 0.0;
    for (int i = 0; i < 40; ++i) {
      const auto fn = i % 2 == 0 ? tiny_.fn_py_flask : tiny_.fn_js;
      invs.push_back(testing::TinyWorld::inv(fn, t, 0.5));
      t += (i % 4 == 3) ? 900.0 : 2.0;
    }
    return sim::Trace(std::move(invs));
  }

  /// 60 invocations of the four TinyWorld functions in turn, 0.2 s apart:
  /// arrivals before, during and after every window of domain_config().
  [[nodiscard]] sim::Trace steady_trace() const {
    const sim::FunctionTypeId fns[] = {tiny_.fn_py_flask, tiny_.fn_py_numpy,
                                       tiny_.fn_js, tiny_.fn_other_os};
    std::vector<sim::Invocation> invs;
    for (std::size_t i = 0; i < 60; ++i)
      invs.push_back(testing::TinyWorld::inv(
          fns[i % 4], 0.2 * static_cast<double>(i), 0.4));
    return sim::Trace(std::move(invs));
  }

  /// 6 primaries in two racks + 1 cold spare: rack 0 crashes together at
  /// t=2 (one member partially), node 4 crashes partially on its own, and
  /// function 0 has a deadline.
  [[nodiscard]] static FleetConfig domain_config() {
    faults::FaultPlan plan;
    plan.startup_failure_prob = 0.2;
    plan.retry.max_attempts = 3;
    plan.domains = {{0, {0, 1, 2}}, {1, {3, 4, 5}}};
    plan.crashes.push_back({0, 2.0, 5.0, false, 0});
    plan.crashes.push_back({1, 2.0, 4.5, false, 0});
    plan.crashes.push_back({2, 2.0, 4.0, true, 0});
    plan.crashes.push_back({4, 7.0, 9.0, true, faults::kNoDomain});
    plan.function_timeouts_s.push_back({0, 30.0});
    FleetConfig cfg;
    cfg.nodes = 6;
    cfg.spare_nodes = 1;
    cfg.seed = 77;
    cfg.node_env.pool_capacity_mb = 1024.0;
    cfg.faults = plan;
    return cfg;
  }

  fstartbench::Benchmark bench_;
  sim::StartupCostModel bench_cost_;
  testing::TinyWorld tiny_;
  sim::StartupCostModel tiny_cost_;
  std::vector<Scenario> scenarios_;
};

/// A fresh Greedy-Match fleet for `scenario`.
[[nodiscard]] inline FleetEnv make_fleet(const Scenario& scenario) {
  return FleetEnv(*scenario.world.functions, *scenario.world.catalog,
                  *scenario.world.cost, scenario.config,
                  uniform_system(policies::make_greedy_match_system));
}

/// The 64 bits of a double.
[[nodiscard]] inline std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// 64 bits as 16 hex digits.
[[nodiscard]] inline std::string hex(std::uint64_t bits) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, bits);
  return buf;
}

/// FNV-1a over the fields of every merged invocation record.
[[nodiscard]] inline std::uint64_t records_digest(const FleetSummary& fs) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  };
  for (const sim::InvocationRecord& r : fs.merged.records()) {
    mix(r.seq);
    mix(r.function);
    mix(r.container);
    mix(static_cast<std::uint64_t>(r.match));
    mix(r.cold ? 1 : 0);
    mix(bits_of(r.latency_s));
    mix(r.failed ? 1 : 0);
    mix(r.attempts);
  }
  return h;
}

/// The counters of an episode summary, doubles as bits, comma-separated.
[[nodiscard]] inline std::string describe(const policies::EpisodeSummary& s) {
  return std::to_string(s.invocations) + ',' +
         hex(bits_of(s.total_latency_s)) + ',' +
         hex(bits_of(s.average_latency_s)) + ',' +
         std::to_string(s.cold_starts) + ',' + std::to_string(s.warm_l1) +
         ',' + std::to_string(s.warm_l2) + ',' + std::to_string(s.warm_l3) +
         ',' + hex(bits_of(s.peak_pool_mb)) + ',' +
         std::to_string(s.evictions) + ',' + std::to_string(s.rejections) +
         ',' + std::to_string(s.failed) + ',' + std::to_string(s.retries);
}

/// One golden line: `<label> <router>` then every summary field.
[[nodiscard]] inline std::string line(const std::string& label,
                                      const FleetSummary& fs) {
  std::string out = label + ' ' + fs.router + " system=" + fs.system +
                    " nodes=" + std::to_string(fs.nodes) +
                    " total=" + describe(fs.total) +
                    " imbalance=" + hex(bits_of(fs.routing_imbalance)) +
                    " lost=" + std::to_string(fs.lost) +
                    " rerouted=" + std::to_string(fs.rerouted) +
                    " crashes=" + std::to_string(fs.node_crashes) +
                    " recoveries=" + std::to_string(fs.node_recoveries) +
                    " domain_crashes=" + std::to_string(fs.domain_crashes) +
                    " partial_crashes=" + std::to_string(fs.partial_crashes) +
                    " spares=" + std::to_string(fs.spares_activated);
  for (std::size_t i = 0; i < fs.per_node.size(); ++i)
    out += " node" + std::to_string(i) + '=' + describe(fs.per_node[i]);
  out += " records=" + std::to_string(fs.merged.records().size()) + ':' +
         hex(records_digest(fs));
  return out;
}

/// Run `scenario` through FleetEnv::run with a fresh `spec` router.
[[nodiscard]] inline std::string run_line(const Scenario& scenario,
                                          const RouterSpec& spec) {
  FleetEnv fleet = make_fleet(scenario);
  const std::unique_ptr<Router> router = spec.make();
  return line(scenario.name, fleet.run(scenario.trace, *router));
}

}  // namespace mlcr::fleet::golden
