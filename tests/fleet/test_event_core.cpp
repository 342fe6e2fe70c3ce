// Bit-identity pinning for the event-driven fleet core: FleetEnv::run (the
// time-ordered event heap) must reproduce run_lockstep (the per-arrival
// advance-everyone oracle it replaced) exactly — every summary field, every
// per-node summary, every merged invocation record — on faultless runs,
// fault-injected runs with crash windows, and TTL-expiry-heavy workloads,
// across every standard router (which also cross-checks the FleetIndex fast
// paths against the lockstep loop's linear scans). EventCore's own order
// (faults before node advances at equal times, stale entries dropped) is
// pinned directly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/common.hpp"
#include "faults/fault_plan.hpp"
#include "fleet/event_core.hpp"
#include "fleet/fleet_env.hpp"
#include "fleet/router.hpp"
#include "policies/baselines.hpp"
#include "testing/fixtures.hpp"

namespace mlcr {
namespace {

using testing::TinyWorld;

void expect_summaries_identical(const fleet::FleetSummary& a,
                                const fleet::FleetSummary& b,
                                const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.router, b.router);
  EXPECT_EQ(a.system, b.system);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.total.invocations, b.total.invocations);
  EXPECT_EQ(a.total.total_latency_s, b.total.total_latency_s);
  EXPECT_EQ(a.total.average_latency_s, b.total.average_latency_s);
  EXPECT_EQ(a.total.cold_starts, b.total.cold_starts);
  EXPECT_EQ(a.total.warm_l1, b.total.warm_l1);
  EXPECT_EQ(a.total.warm_l2, b.total.warm_l2);
  EXPECT_EQ(a.total.warm_l3, b.total.warm_l3);
  EXPECT_EQ(a.total.peak_pool_mb, b.total.peak_pool_mb);
  EXPECT_EQ(a.total.evictions, b.total.evictions);
  EXPECT_EQ(a.total.rejections, b.total.rejections);
  EXPECT_EQ(a.total.failed, b.total.failed);
  EXPECT_EQ(a.total.retries, b.total.retries);
  EXPECT_EQ(a.routing_imbalance, b.routing_imbalance);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.rerouted, b.rerouted);
  EXPECT_EQ(a.node_crashes, b.node_crashes);
  EXPECT_EQ(a.node_recoveries, b.node_recoveries);
  ASSERT_EQ(a.per_node.size(), b.per_node.size());
  for (std::size_t i = 0; i < a.per_node.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_EQ(a.per_node[i].invocations, b.per_node[i].invocations);
    EXPECT_EQ(a.per_node[i].total_latency_s, b.per_node[i].total_latency_s);
    EXPECT_EQ(a.per_node[i].cold_starts, b.per_node[i].cold_starts);
    EXPECT_EQ(a.per_node[i].warm_l1, b.per_node[i].warm_l1);
    EXPECT_EQ(a.per_node[i].warm_l2, b.per_node[i].warm_l2);
    EXPECT_EQ(a.per_node[i].warm_l3, b.per_node[i].warm_l3);
    EXPECT_EQ(a.per_node[i].peak_pool_mb, b.per_node[i].peak_pool_mb);
    EXPECT_EQ(a.per_node[i].evictions, b.per_node[i].evictions);
    EXPECT_EQ(a.per_node[i].failed, b.per_node[i].failed);
    EXPECT_EQ(a.per_node[i].retries, b.per_node[i].retries);
  }
  const auto& ra = a.merged.records();
  const auto& rb = b.merged.records();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(ra[i].seq, rb[i].seq);
    EXPECT_EQ(ra[i].function, rb[i].function);
    EXPECT_EQ(ra[i].container, rb[i].container);
    EXPECT_EQ(ra[i].match, rb[i].match);
    EXPECT_EQ(ra[i].cold, rb[i].cold);
    EXPECT_EQ(ra[i].latency_s, rb[i].latency_s);
    EXPECT_EQ(ra[i].failed, rb[i].failed);
    EXPECT_EQ(ra[i].attempts, rb[i].attempts);
  }
}

/// Run the same (trace, config, router spec) through the event core and the
/// lockstep oracle on fresh fleets and require identical summaries.
void expect_event_matches_lockstep(const fstartbench::Benchmark& bench,
                                   const sim::StartupCostModel& cost,
                                   const sim::Trace& trace,
                                   const fleet::FleetConfig& cfg) {
  for (const auto& spec : fleet::standard_routers(/*seed=*/7)) {
    fleet::FleetEnv event_env(
        bench.functions, bench.catalog, cost, cfg,
        fleet::uniform_system(policies::make_greedy_match_system));
    fleet::FleetEnv lockstep_env(
        bench.functions, bench.catalog, cost, cfg,
        fleet::uniform_system(policies::make_greedy_match_system));
    const auto event_router = spec.make();
    const auto lockstep_router = spec.make();
    const auto ev = event_env.run(trace, *event_router);
    const auto ls = lockstep_env.run_lockstep(trace, *lockstep_router);
    expect_summaries_identical(ev, ls, spec.name);
  }
}

TEST(FleetEventCore, FaultsFireBeforeAdvancesAndStaleEntriesAreDropped) {
  const std::vector<fleet::FleetEnv::FaultEvent> faults = {
      {.time = 2.0, .is_recovery = false, .node = 1},
      {.time = 5.0, .is_recovery = true, .node = 1}};
  fleet::EventCore core(3, faults);
  core.reschedule(0, 2.0);
  core.reschedule(1, std::nullopt);
  core.reschedule(2, 1.0);
  core.reschedule(2, 3.0);  // supersedes the 1.0 entry

  EXPECT_FALSE(core.pop_due(1.5).has_value());  // the 1.0 entry is stale
  auto ev = core.pop_due(10.0);
  ASSERT_TRUE(ev.has_value());
  ASSERT_NE(ev->fault, nullptr);  // same time as node 0: the fault first
  EXPECT_EQ(ev->fault, &faults[0]);
  EXPECT_EQ(ev->node, 1U);
  ev = core.pop_due(10.0);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->fault, nullptr);
  EXPECT_EQ(ev->node, 0U);
  EXPECT_EQ(ev->time, 2.0);
  ev = core.pop_due(4.0);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->node, 2U);
  EXPECT_EQ(ev->time, 3.0);
  // Popped advances leave no entry until the host reschedules the node.
  EXPECT_FALSE(core.pop_due(4.0).has_value());
  EXPECT_EQ(core.next_fault(), 1U);
  ev = core.pop_due(5.0);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->fault, &faults[1]);
  EXPECT_EQ(core.next_fault(), 2U);
  EXPECT_FALSE(core.pop_due(100.0).has_value());
}

TEST(FleetEventCore, MatchesLockstepFaultless) {
  const auto bench = fstartbench::make_benchmark();
  const sim::StartupCostModel cost(bench.catalog,
                                   fstartbench::default_cost_config());
  util::Rng trace_rng(33);
  const sim::Trace trace =
      fstartbench::make_overall_workload(bench, 200, trace_rng);
  for (const std::size_t nodes : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}}) {
    SCOPED_TRACE(nodes);
    fleet::FleetConfig cfg;
    cfg.nodes = nodes;
    cfg.node_env.pool_capacity_mb = 2400.0 / static_cast<double>(nodes);
    cfg.seed = 5;
    expect_event_matches_lockstep(bench, cost, trace, cfg);
  }
}

TEST(FleetEventCore, MatchesLockstepWithFaults) {
  const auto bench = fstartbench::make_benchmark();
  const sim::StartupCostModel cost(bench.catalog,
                                   fstartbench::default_cost_config());
  util::Rng trace_rng(44);
  const sim::Trace trace =
      fstartbench::make_overall_workload(bench, 200, trace_rng);

  fleet::FleetConfig cfg;
  cfg.nodes = 4;
  cfg.node_env.pool_capacity_mb = 700.0;
  cfg.seed = 9;
  cfg.faults.startup_failure_prob = 0.2;
  cfg.faults.retry.max_attempts = 3;
  util::Rng crash_rng(17);
  cfg.faults.crashes = faults::sample_crash_windows(
      cfg.nodes, trace.span_s(), /*crashes_per_node=*/2.0,
      /*mean_downtime_s=*/40.0, /*max_concurrent_down=*/3, crash_rng);
  ASSERT_FALSE(cfg.faults.crashes.empty());
  expect_event_matches_lockstep(bench, cost, trace, cfg);
}

/// Sparse arrivals with gaps far beyond the keep-alive TTL force the event
/// core through its TTL-expiry path (per-node deadline events) where the
/// lockstep loop expires containers during its per-arrival sweep.
TEST(FleetEventCore, MatchesLockstepAcrossTtlExpiries) {
  TinyWorld world;
  std::vector<sim::Invocation> invs;
  double t = 0.0;
  for (int i = 0; i < 40; ++i) {
    const auto fn = i % 2 == 0 ? world.fn_py_flask : world.fn_js;
    invs.push_back(TinyWorld::inv(fn, t, 0.5));
    // Alternate tight bursts (warm reuse) with long gaps (TTL expiry).
    t += (i % 4 == 3) ? 900.0 : 2.0;
  }
  const sim::Trace trace(std::move(invs));

  fleet::FleetConfig cfg;
  cfg.nodes = 3;
  cfg.node_env.pool_capacity_mb = 4096.0;
  cfg.seed = 3;
  const auto bench_like = world;
  for (const auto& spec : fleet::standard_routers(/*seed=*/5)) {
    fleet::FleetEnv event_env(
        bench_like.functions, bench_like.catalog, bench_like.cost_model(),
        cfg, fleet::uniform_system(policies::make_greedy_match_system));
    fleet::FleetEnv lockstep_env(
        bench_like.functions, bench_like.catalog, bench_like.cost_model(),
        cfg, fleet::uniform_system(policies::make_greedy_match_system));
    const auto event_router = spec.make();
    const auto lockstep_router = spec.make();
    expect_summaries_identical(event_env.run(trace, *event_router),
                               lockstep_env.run_lockstep(trace,
                                                         *lockstep_router),
                               spec.name);
  }
}

/// set_fault_plan must behave exactly like constructing with the plan in
/// the config (the pre-sorted fault event list is rebuilt, not stale).
TEST(FleetEventCore, SetFaultPlanMatchesConstructionPlan) {
  const auto bench = fstartbench::make_benchmark();
  const sim::StartupCostModel cost(bench.catalog,
                                   fstartbench::default_cost_config());
  util::Rng trace_rng(55);
  const sim::Trace trace =
      fstartbench::make_overall_workload(bench, 150, trace_rng);

  faults::FaultPlan plan;
  util::Rng crash_rng(23);
  plan.crashes = faults::sample_crash_windows(
      3, trace.span_s(), /*crashes_per_node=*/1.5, /*mean_downtime_s=*/30.0,
      /*max_concurrent_down=*/2, crash_rng);
  ASSERT_FALSE(plan.crashes.empty());

  fleet::FleetConfig cfg;
  cfg.nodes = 3;
  cfg.node_env.pool_capacity_mb = 800.0;
  cfg.seed = 12;

  fleet::FleetConfig cfg_with_plan = cfg;
  cfg_with_plan.faults = plan;
  fleet::FleetEnv constructed(
      bench.functions, bench.catalog, cost, cfg_with_plan,
      fleet::uniform_system(policies::make_greedy_match_system));
  fleet::FleetEnv updated(
      bench.functions, bench.catalog, cost, cfg,
      fleet::uniform_system(policies::make_greedy_match_system));
  updated.set_fault_plan(plan);

  fleet::LeastOutstandingRouter ra;
  fleet::LeastOutstandingRouter rb;
  expect_summaries_identical(constructed.run(trace, ra),
                             updated.run(trace, rb), "set_fault_plan");
}

}  // namespace
}  // namespace mlcr
