// Faults at fleet scope: crash windows drive re-routing and loss
// accounting, a 1-node faulted fleet reproduces the single-env protocol
// bit-for-bit, repeated runs inject identical faults, and malformed traces
// are rejected with a diagnostic naming the invocation.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "faults/injector.hpp"
#include "fleet/fleet_env.hpp"
#include "fleet/router.hpp"
#include "policies/baselines.hpp"
#include "policies/runner.hpp"
#include "testing/fixtures.hpp"
#include "util/check.hpp"

namespace mlcr {
namespace {

using testing::TinyWorld;

sim::Trace steady_trace(const TinyWorld& world, int count, double gap_s,
                        double exec_s = 0.5) {
  std::vector<sim::Invocation> invs;
  for (int i = 0; i < count; ++i) {
    const auto fn = i % 2 == 0 ? world.fn_py_flask : world.fn_py_numpy;
    invs.push_back(TinyWorld::inv(fn, gap_s * i, exec_s));
  }
  return sim::Trace(std::move(invs));
}

/// Each node's served startup latencies from the episode `fleet` last ran.
std::vector<std::vector<double>> node_latencies(const fleet::FleetEnv& fleet) {
  std::vector<std::vector<double>> out;
  for (std::size_t i = 0; i < fleet.node_count(); ++i)
    out.push_back(fleet.node(i).metrics().latencies());
  return out;
}

fleet::FleetEnv make_fleet(const TinyWorld& world, fleet::FleetConfig cfg) {
  return fleet::FleetEnv(
      world.functions, world.catalog, world.cost_model(), cfg,
      fleet::uniform_system(policies::make_greedy_match_system));
}

TEST(FaultFleet, OneNodeFaultedFleetMatchesSingleEnvBitForBit) {
  TinyWorld world;
  faults::FaultPlan plan;
  plan.startup_failure_prob = 0.3;
  plan.retry.max_attempts = 2;

  fleet::FleetConfig cfg;
  cfg.nodes = 1;
  cfg.seed = 77;
  cfg.faults = plan;
  fleet::FleetEnv fleet_env = make_fleet(world, cfg);
  fleet::RoundRobinRouter router;
  // Overlapping arrivals keep the warm containers busy, forcing cold starts
  // (and therefore startup-failure draws) throughout the episode.
  const sim::Trace trace = steady_trace(world, 30, 1.0, /*exec_s=*/6.0);
  const fleet::FleetSummary fs = fleet_env.run(trace, router);

  // A single ClusterEnv driven with an injector on the same split stream
  // must reproduce the fleet's node 0 exactly.
  policies::SystemSpec spec = policies::make_greedy_match_system();
  sim::EnvConfig env_cfg = cfg.node_env;
  env_cfg.keep_alive_ttl_s = spec.keep_alive_ttl_s;
  env_cfg.reuse_semantics = spec.reuse_semantics;
  sim::ClusterEnv env(world.functions, world.catalog, world.cost_model(),
                      env_cfg, spec.eviction_factory);
  faults::FaultInjector injector(
      plan, fleet::FleetEnv::node_fault_stream(cfg.seed, 1, 0));
  env.set_fault_injector(&injector);
  (void)policies::run_episode(env, *spec.scheduler, trace);

  EXPECT_GT(env.metrics().failed_count() + env.metrics().retry_count(), 0U)
      << "fault rate too low to exercise anything";
  EXPECT_EQ(fleet_env.node(0).metrics().latencies(), env.metrics().latencies());
  EXPECT_EQ(fs.total.failed, env.metrics().failed_count());
  EXPECT_EQ(fs.total.retries, env.metrics().retry_count());
  EXPECT_EQ(fs.total.cold_starts, env.metrics().cold_start_count());
  EXPECT_EQ(fs.total.total_latency_s, env.metrics().total_latency_s());
}

TEST(FaultFleet, CrashWindowReroutesEveryInvocationWithZeroLoss) {
  TinyWorld world;
  fleet::FleetConfig cfg;
  cfg.nodes = 2;
  cfg.seed = 5;
  cfg.faults.crashes.push_back({0, 22.0, 48.0});
  fleet::FleetEnv env = make_fleet(world, cfg);
  // Round-robin keeps aiming at node 0 while it is down, so the fleet's
  // failover path must carry those invocations to node 1.
  fleet::RoundRobinRouter router;
  const sim::Trace trace = steady_trace(world, 20, 5.0);
  const fleet::FleetSummary fs = env.run(trace, router);

  EXPECT_EQ(fs.node_crashes, 1U);
  EXPECT_EQ(fs.node_recoveries, 1U);
  EXPECT_EQ(fs.lost, 0U);
  EXPECT_GT(fs.rerouted, 0U);
  EXPECT_EQ(fs.total.invocations, trace.size());
  EXPECT_DOUBLE_EQ(fs.goodput(), 1.0);  // no capacity was actually missing
  // Node 0 lost its warm pool in the crash, so the episode pays extra cold
  // starts after recovery.
  EXPECT_GT(fs.total.cold_starts, 2U);
}

TEST(FaultFleet, AllNodesDownLosesInvocationsButAccountsForThem) {
  TinyWorld world;
  fleet::FleetConfig cfg;
  cfg.nodes = 1;
  cfg.seed = 3;
  cfg.faults.crashes.push_back({0, 10.0, 30.0});
  fleet::FleetEnv env = make_fleet(world, cfg);
  fleet::RoundRobinRouter router;
  const sim::Trace trace =
      TinyWorld::make_trace({TinyWorld::inv(world.fn_py_flask, 0.0, 0.5),
                             TinyWorld::inv(world.fn_py_flask, 15.0, 0.5),
                             TinyWorld::inv(world.fn_py_flask, 20.0, 0.5),
                             TinyWorld::inv(world.fn_py_flask, 40.0, 0.5)});
  const fleet::FleetSummary fs = env.run(trace, router);

  EXPECT_EQ(fs.lost, 2U);  // arrivals inside the down window
  EXPECT_EQ(fs.total.invocations, 2U);
  EXPECT_EQ(fs.total.failed, 0U);
  EXPECT_DOUBLE_EQ(fs.goodput(), 0.5);
  EXPECT_EQ(fs.node_crashes, 1U);
  EXPECT_EQ(fs.node_recoveries, 1U);
}

TEST(FaultFleet, RepeatedRunsInjectIdenticalFaults) {
  TinyWorld world;
  fleet::FleetConfig cfg;
  cfg.nodes = 3;
  cfg.seed = 21;
  cfg.faults.startup_failure_prob = 0.25;
  cfg.faults.retry.max_attempts = 2;
  cfg.faults.crashes.push_back({1, 20.0, 45.0});
  fleet::FleetEnv env = make_fleet(world, cfg);
  const sim::Trace trace = steady_trace(world, 40, 3.0);

  fleet::RoundRobinRouter r1;
  const fleet::FleetSummary a = env.run(trace, r1);
  const auto a_latencies = node_latencies(env);
  fleet::RoundRobinRouter r2;
  const fleet::FleetSummary b = env.run(trace, r2);

  EXPECT_EQ(a.total.failed, b.total.failed);
  EXPECT_EQ(a.total.retries, b.total.retries);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.rerouted, b.rerouted);
  EXPECT_EQ(a.total.total_latency_s, b.total.total_latency_s);
  EXPECT_EQ(a_latencies, node_latencies(env));
}

TEST(FaultFleet, FaultlessRetryPolicyAttachesNoMachinery) {
  TinyWorld world;
  fleet::FleetConfig plain_cfg;
  plain_cfg.nodes = 2;
  plain_cfg.seed = 9;
  fleet::FleetConfig retry_cfg = plain_cfg;
  retry_cfg.faults.retry.max_attempts = 5;  // a policy alone injects nothing
  ASSERT_TRUE(retry_cfg.faults.faultless());

  fleet::FleetEnv plain = make_fleet(world, plain_cfg);
  fleet::FleetEnv with_retry = make_fleet(world, retry_cfg);
  const sim::Trace trace = steady_trace(world, 24, 4.0);
  fleet::WarmAwareRouter r1;
  fleet::WarmAwareRouter r2;
  const fleet::FleetSummary a = plain.run(trace, r1);
  const fleet::FleetSummary b = with_retry.run(trace, r2);
  EXPECT_EQ(a.total.total_latency_s, b.total.total_latency_s);
  EXPECT_EQ(node_latencies(plain), node_latencies(with_retry));
  EXPECT_EQ(b.total.failed, 0U);
  EXPECT_EQ(b.node_crashes, 0U);
}

TEST(FaultFleet, RunRejectsTracesNamingUnknownFunctions) {
  TinyWorld world;
  fleet::FleetConfig cfg;
  cfg.nodes = 2;
  fleet::FleetEnv env = make_fleet(world, cfg);
  std::vector<sim::Invocation> invs = {
      TinyWorld::inv(world.fn_py_flask, 0.0, 0.5),
      TinyWorld::inv(world.fn_py_flask, 1.0, 0.5)};
  invs[1].function =
      static_cast<sim::FunctionTypeId>(world.functions.size() + 3);
  const sim::Trace bad(std::move(invs));
  fleet::RoundRobinRouter router;
  try {
    (void)env.run(bad, router);
    FAIL() << "malformed trace accepted";
  } catch (const util::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown function"), std::string::npos) << msg;
    EXPECT_NE(msg.find("invocation 1"), std::string::npos) << msg;
  }
}

/// §14 rack fixture: 6 primaries in two 3-node domains + one cold spare.
/// A whole rack goes down together at t=2 (node 2 partially) and one
/// independent partial window hits node 4 later.
fleet::FleetConfig rack_config() {
  faults::FaultPlan plan;
  plan.startup_failure_prob = 0.2;
  plan.retry.max_attempts = 3;
  plan.domains = {{0, {0, 1, 2}}, {1, {3, 4, 5}}};
  plan.crashes.push_back({0, 2.0, 5.0, false, 0});
  plan.crashes.push_back({1, 2.0, 4.5, false, 0});
  plan.crashes.push_back({2, 2.0, 4.0, true, 0});
  plan.crashes.push_back({4, 7.0, 9.0, true, faults::kNoDomain});

  fleet::FleetConfig cfg;
  cfg.nodes = 6;
  cfg.spare_nodes = 1;
  cfg.seed = 77;
  cfg.faults = plan;
  return cfg;
}

TEST(FaultFleet, DomainCrashCountsEventsAdmitsSparesAndKeepsAccounting) {
  TinyWorld world;
  fleet::FleetEnv env = make_fleet(world, rack_config());
  const sim::Trace trace = steady_trace(world, 40, 0.3);
  fleet::WarmAwareRouter router;

  EXPECT_EQ(env.routable_count(), 6U);
  EXPECT_EQ(env.node_count(), 7U);
  EXPECT_FALSE(env.node_routable(6));
  const fleet::FleetSummary fs = env.run(trace, router);

  // One domain-level event (three member windows share a down_at), four
  // node crashes total, two of them partial, and the first crash admitted
  // the spare into the routable prefix.
  EXPECT_EQ(fs.domain_crashes, 1U);
  EXPECT_EQ(fs.node_crashes, 4U);
  EXPECT_EQ(fs.partial_crashes, 2U);
  EXPECT_EQ(fs.node_recoveries, 4U);
  EXPECT_EQ(fs.spares_activated, 1U);
  EXPECT_TRUE(env.node_routable(6));
  EXPECT_EQ(fs.total.invocations + fs.lost, trace.size());
  // Warm-Aware keeps aiming at the rack's warm pools, so run()'s failover
  // moves work off the down members.
  EXPECT_GT(fs.rerouted, 0U);
  // The spare served traffic once admitted (half the fleet was down).
  ASSERT_EQ(fs.per_node.size(), 7U);
  EXPECT_GT(fs.per_node[6].invocations, 0U);

  // Repeated runs of the same faulted fleet are bit-identical.
  fleet::FleetEnv env2 = make_fleet(world, rack_config());
  fleet::WarmAwareRouter router2;
  const fleet::FleetSummary fs2 = env2.run(trace, router2);
  EXPECT_EQ(fs.total.invocations, fs2.total.invocations);
  EXPECT_EQ(fs.total.failed, fs2.total.failed);
  EXPECT_DOUBLE_EQ(fs.total.total_latency_s, fs2.total.total_latency_s);
  EXPECT_EQ(fs.lost, fs2.lost);
  EXPECT_EQ(fs.rerouted, fs2.rerouted);
}

TEST(FaultFleet, FaultlessSpareFleetMatchesNoSpareFleetBitForBit) {
  TinyWorld world;
  const sim::Trace trace = steady_trace(world, 30, 0.4);

  fleet::FleetConfig no_spares;
  no_spares.nodes = 4;
  no_spares.seed = 9;
  fleet::FleetConfig spares = no_spares;
  spares.spare_nodes = 2;

  fleet::FleetEnv plain = make_fleet(world, no_spares);
  fleet::FleetEnv elastic = make_fleet(world, spares);
  fleet::RoundRobinRouter r1, r2;
  const fleet::FleetSummary a = plain.run(trace, r1);
  const fleet::FleetSummary b = elastic.run(trace, r2);

  // Without a crash no spare is ever admitted: routing, scheduling and
  // totals are bit-identical; the spares idle with empty pools.
  EXPECT_EQ(b.spares_activated, 0U);
  EXPECT_EQ(elastic.routable_count(), 4U);
  EXPECT_EQ(a.total.invocations, b.total.invocations);
  EXPECT_EQ(a.total.cold_starts, b.total.cold_starts);
  EXPECT_DOUBLE_EQ(a.total.total_latency_s, b.total.total_latency_s);
  for (std::size_t n = 0; n < 4; ++n)
    EXPECT_EQ(a.per_node[n].invocations, b.per_node[n].invocations)
        << "node " << n;
  for (std::size_t n = 4; n < 6; ++n)
    EXPECT_EQ(b.per_node[n].invocations, 0U) << "spare " << n;
}

}  // namespace
}  // namespace mlcr
