// The fleet's event core: EventCore's own order (faults before node
// advances at equal times, stale entries dropped), and set_fault_plan
// rebuilding the pre-sorted fault list. FleetEnv::run itself is pinned by
// tests/fleet/fleet_golden.txt (test_fleet_golden.cpp).
#include <gtest/gtest.h>

#include <vector>

#include "faults/fault_plan.hpp"
#include "fleet/event_core.hpp"
#include "fleet/fleet_env.hpp"
#include "fleet/fleet_golden.hpp"
#include "fleet/router.hpp"
#include "fstartbench/benchmark.hpp"
#include "fstartbench/workloads.hpp"
#include "policies/baselines.hpp"

namespace mlcr {
namespace {

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
  plan.crashes = faults::sample_domain_crash_windows(
      3, trace.span_s(), /*crashes_per_node=*/1.5, /*mean_downtime_s=*/30.0,
      /*max_concurrent_down=*/2, faults::DomainPlan{}, crash_rng);
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
  const fleet::FleetSummary a = constructed.run(trace, ra);
  const fleet::FleetSummary b = updated.run(trace, rb);
  EXPECT_EQ(fleet::golden::line("set_fault_plan", a, constructed),
            fleet::golden::line("set_fault_plan", b, updated));
}

}  // namespace
}  // namespace mlcr
