// FleetEnv: single-node equivalence with the traced runner, fleet-wide
// aggregation accounting, where each invocation record lives after an
// episode, determinism under a fixed seed, and the headline
// property the fleet layer exists for — reuse-aware routing preserves the
// multi-level reuse that random routing destroys.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet_env.hpp"
#include "fleet/fleet_golden.hpp"
#include "fleet/router.hpp"
#include "fstartbench/workloads.hpp"
#include "policies/runner.hpp"
#include "serve/clock.hpp"
#include "serve/policy.hpp"
#include "serve/service.hpp"
#include "testing/fixtures.hpp"

namespace mlcr {
namespace {

/// A single-node fleet must reproduce run_episode() on the same trace
/// exactly — same latencies, same cold/warm split, same pool statistics —
/// for every router (routing is trivial with one node).
TEST(FleetEnv, SingleNodeFleetReproducesRunEpisodeExactly) {
  const auto bench = fstartbench::make_benchmark();
  const sim::StartupCostModel cost(bench.catalog,
                                   fstartbench::default_cost_config());
  util::Rng trace_rng(77);
  const sim::Trace trace =
      fstartbench::make_overall_workload(bench, 150, trace_rng);

  // Reference: the traced single-node protocol.
  const auto spec = policies::make_greedy_match_system();
  sim::EnvConfig env_cfg;
  env_cfg.pool_capacity_mb = 1500.0;
  env_cfg.keep_alive_ttl_s = spec.keep_alive_ttl_s;
  sim::ClusterEnv env(bench.functions, bench.catalog, cost, env_cfg,
                      spec.eviction_factory);
  const auto reference = policies::run_episode(env, *spec.scheduler, trace);

  for (const auto& router_spec : fleet::standard_routers()) {
    fleet::FleetConfig cfg;
    cfg.nodes = 1;
    cfg.node_env.pool_capacity_mb = 1500.0;
    fleet::FleetEnv one(bench.functions, bench.catalog, cost, cfg,
                        fleet::uniform_system(policies::make_greedy_match_system));
    const auto router = router_spec.make();
    const fleet::FleetSummary fs = one.run(trace, *router);

    SCOPED_TRACE(router_spec.name);
    EXPECT_EQ(fs.total.invocations, reference.invocations);
    EXPECT_DOUBLE_EQ(fs.total.total_latency_s, reference.total_latency_s);
    EXPECT_DOUBLE_EQ(fs.total.average_latency_s, reference.average_latency_s);
    EXPECT_EQ(fs.total.cold_starts, reference.cold_starts);
    EXPECT_EQ(fs.total.warm_l1, reference.warm_l1);
    EXPECT_EQ(fs.total.warm_l2, reference.warm_l2);
    EXPECT_EQ(fs.total.warm_l3, reference.warm_l3);
    EXPECT_DOUBLE_EQ(fs.total.peak_pool_mb, reference.peak_pool_mb);
    EXPECT_EQ(fs.total.evictions, reference.evictions);
    EXPECT_EQ(fs.total.rejections, reference.rejections);
    // Per-invocation records agree with the single-node metrics stream.
    ASSERT_EQ(one.node(0).metrics().invocation_count(),
              reference.invocations);
    EXPECT_EQ(one.node(0).metrics().cumulative_latency(),
              env.metrics().cumulative_latency());
  }
}

TEST(FleetEnv, KeepAliveTtlAppliesPerNode) {
  // The TTL/semantics of the SystemSpec must reach every node's env, same
  // as policies::run_system.
  const testing::TinyWorld world;
  fleet::FleetConfig cfg;
  cfg.nodes = 1;
  cfg.node_env.pool_capacity_mb = 4096.0;
  fleet::FleetEnv one(
      world.functions, world.catalog, world.cost_model(), cfg,
      fleet::uniform_system([] { return policies::make_keepalive_system(5.0); }));
  fleet::RoundRobinRouter router;
  // Two invocations of the same function 60 s apart: with a 5 s TTL the
  // container expires in between, so both must cold-start.
  const sim::Trace trace = testing::TinyWorld::make_trace(
      {testing::TinyWorld::inv(world.fn_py_flask, 0.0, 0.1),
       testing::TinyWorld::inv(world.fn_py_flask, 60.0, 0.1)});
  const auto fs = one.run(trace, router);
  EXPECT_EQ(fs.total.cold_starts, 2U);
}

TEST(FleetEnv, SameSeedSameResultAcrossRuns) {
  const auto bench = fstartbench::make_benchmark();
  const sim::StartupCostModel cost(bench.catalog,
                                   fstartbench::default_cost_config());
  util::Rng trace_rng(11);
  const sim::Trace trace =
      fstartbench::make_overall_workload(bench, 120, trace_rng);

  auto run_once = [&] {
    fleet::FleetConfig cfg;
    cfg.nodes = 4;
    cfg.node_env.pool_capacity_mb = 600.0;
    cfg.seed = 99;
    fleet::FleetEnv env(bench.functions, bench.catalog, cost, cfg,
                        fleet::uniform_system(policies::make_greedy_match_system));
    fleet::RandomRouter router(13);
    return env.run(trace, router);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.total.total_latency_s, b.total.total_latency_s);
  EXPECT_EQ(a.total.cold_starts, b.total.cold_starts);
  ASSERT_EQ(a.per_node.size(), b.per_node.size());
  for (std::size_t i = 0; i < a.per_node.size(); ++i) {
    EXPECT_EQ(a.per_node[i].invocations, b.per_node[i].invocations);
    EXPECT_DOUBLE_EQ(a.per_node[i].total_latency_s,
                     b.per_node[i].total_latency_s);
  }
}

TEST(FleetEnv, AggregateSumsPerNodeCounts) {
  const auto bench = fstartbench::make_benchmark();
  const sim::StartupCostModel cost(bench.catalog,
                                   fstartbench::default_cost_config());
  util::Rng trace_rng(21);
  const sim::Trace trace =
      fstartbench::make_overall_workload(bench, 100, trace_rng);

  fleet::FleetConfig cfg;
  cfg.nodes = 3;
  cfg.node_env.pool_capacity_mb = 800.0;
  fleet::FleetEnv env(bench.functions, bench.catalog, cost, cfg,
                      fleet::uniform_system(policies::make_greedy_match_system));
  fleet::RoundRobinRouter router;
  const auto fs = env.run(trace, router);

  EXPECT_EQ(fs.nodes, 3U);
  EXPECT_EQ(fs.router, "Round-Robin");
  EXPECT_EQ(fs.system, "Greedy-Match");
  std::size_t invocations = 0, colds = 0, warm = 0;
  double latency = 0.0;
  for (const auto& node : fs.per_node) {
    invocations += node.invocations;
    colds += node.cold_starts;
    warm += node.warm_l1 + node.warm_l2 + node.warm_l3;
    latency += node.total_latency_s;
  }
  EXPECT_EQ(fs.total.invocations, trace.size());
  EXPECT_EQ(fs.total.invocations, invocations);
  EXPECT_EQ(fs.total.cold_starts, colds);
  EXPECT_EQ(fs.total.warm_l1 + fs.total.warm_l2 + fs.total.warm_l3, warm);
  EXPECT_DOUBLE_EQ(fs.total.total_latency_s, latency);
  // Round-robin over 3 nodes is perfectly balanced (100 = 34+33+33).
  EXPECT_NEAR(fs.routing_imbalance, 1.0, 0.05);
}

/// The record contract on the episode `fleet` just closed with summary
/// `fs` over a `trace_size`-invocation trace: node i's collector holds its
/// per_node[i].invocations records in ascending seq order, and every seq
/// not lost at routing sits in exactly one node.
void expect_records_stay_in_their_nodes(const fleet::FleetEnv& fleet,
                                        const fleet::FleetSummary& fs,
                                        std::size_t trace_size) {
  ASSERT_EQ(fs.per_node.size(), fleet.node_count());
  std::vector<std::size_t> owners(trace_size, 0);
  for (std::size_t i = 0; i < fleet.node_count(); ++i) {
    const auto& records = fleet.node(i).metrics().records();
    EXPECT_EQ(records.size(), fs.per_node[i].invocations) << "node " << i;
    for (std::size_t k = 0; k < records.size(); ++k) {
      ASSERT_LT(records[k].seq, trace_size) << "node " << i;
      if (k > 0) {
        EXPECT_LT(records[k - 1].seq, records[k].seq)
            << "node " << i << " record " << k;
      }
      ++owners[records[k].seq];
    }
  }
  std::size_t unowned = 0;
  for (std::size_t seq = 0; seq < trace_size; ++seq) {
    EXPECT_LE(owners[seq], 1U) << "seq " << seq;
    if (owners[seq] == 0) ++unowned;
  }
  EXPECT_EQ(unowned, fs.lost);
}

/// Every node's collector is empty: a new episode began.
void expect_records_cleared(const fleet::FleetEnv& fleet) {
  for (std::size_t i = 0; i < fleet.node_count(); ++i)
    EXPECT_EQ(fleet.node(i).metrics().invocation_count(), 0U) << "node " << i;
}

/// Each invocation record lives only in its node's collector, so readers
/// reach a closed episode's records through node(i).metrics(). Checked in
/// both planes over every golden scenario (faultless, crash windows with
/// reroutes, correlated domains admitting a spare): the records stay until
/// the next episode begins, and beginning it clears them.
TEST(FleetEnv, NodeRecordsStayReadableUntilTheNextEpisode) {
  const fleet::golden::Matrix matrix;
  std::size_t rerouted = 0;
  std::size_t spares = 0;
  for (const fleet::golden::Scenario& scenario : matrix.scenarios())
    for (const fleet::RouterSpec& spec : fleet::golden::routers()) {
      SCOPED_TRACE(scenario.name + ' ' + spec.name);
      const std::size_t n = scenario.trace.size();
      fleet::FleetEnv fleet = fleet::golden::make_fleet(scenario);
      const std::unique_ptr<fleet::Router> router = spec.make();
      const fleet::FleetSummary run = fleet.run(scenario.trace, *router);
      expect_records_stay_in_their_nodes(fleet, run, n);
      rerouted += run.rerouted;
      spares += run.spares_activated;

      serve::SimClock clock;
      serve::SchedulerService service(
          fleet, clock, std::make_unique<serve::RouterPolicy>(spec.make()),
          serve::ServeConfig{});
      service.begin_episode();
      expect_records_cleared(fleet);
      for (const sim::Invocation& inv : scenario.trace.invocations()) {
        clock.advance_to(inv.arrival_s);
        ASSERT_TRUE(service.submit(inv));
        (void)service.pump_once();
      }
      const serve::ServeSummary served = service.finish_episode();
      expect_records_stay_in_their_nodes(fleet, served.fleet, n);
      EXPECT_EQ(served.fleet.total.invocations, run.total.invocations);

      fleet.begin_episode();
      expect_records_cleared(fleet);
    }
  EXPECT_GT(rerouted, 0U) << "no cell rerouted an invocation";
  EXPECT_GT(spares, 0U) << "no cell admitted a spare";
}

/// The reason this layer exists: on a ≥4-node fleet, reuse-aware routing
/// (warm-aware, package affinity) must beat random routing on total startup
/// latency — random placement scatters invocations away from compatible
/// warm containers.
TEST(FleetEnv, ReuseAwareRoutingBeatsRandomOnFourNodes) {
  const auto bench = fstartbench::make_benchmark();
  const sim::StartupCostModel cost(bench.catalog,
                                   fstartbench::default_cost_config());
  util::Rng trace_rng(31);
  const sim::Trace trace =
      fstartbench::make_overall_workload(bench, 300, trace_rng);

  auto run_router = [&](fleet::Router& router) {
    fleet::FleetConfig cfg;
    cfg.nodes = 4;
    cfg.node_env.pool_capacity_mb = 700.0;
    fleet::FleetEnv env(bench.functions, bench.catalog, cost, cfg,
                        fleet::uniform_system(policies::make_greedy_match_system));
    return env.run(trace, router);
  };

  fleet::RandomRouter random(17);
  fleet::ConsistentHashRouter affinity;
  fleet::WarmAwareRouter warm_aware;
  const double random_latency = run_router(random).total.total_latency_s;
  EXPECT_LT(run_router(warm_aware).total.total_latency_s, random_latency);
  EXPECT_LT(run_router(affinity).total.total_latency_s, random_latency);
}

}  // namespace
}  // namespace mlcr
