// Router policies: determinism, range, and the placement properties each
// policy promises (round-robin cycling, least-outstanding load tracking,
// consistent-hash stability + affinity, warm-aware match chasing).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "faults/fault_plan.hpp"
#include "fleet/fleet_env.hpp"
#include "fleet/fleet_index.hpp"
#include "fleet/router.hpp"
#include "testing/fixtures.hpp"
#include "util/check.hpp"

namespace mlcr {
namespace {

using testing::TinyWorld;

fleet::FleetEnv make_fleet(const TinyWorld& world, std::size_t nodes,
                           double pool_mb = 4096.0) {
  fleet::FleetConfig cfg;
  cfg.nodes = nodes;
  cfg.node_env.pool_capacity_mb = pool_mb;
  cfg.seed = 5;
  return fleet::FleetEnv(
      world.functions, world.catalog, world.cost_model(), cfg,
      fleet::uniform_system(policies::make_greedy_match_system));
}

TEST(Router, RoundRobinCyclesThroughNodes) {
  const TinyWorld world;
  auto env = make_fleet(world, 3);
  fleet::RoundRobinRouter router;
  router.on_episode_start(env);
  const auto inv = TinyWorld::inv(world.fn_py_flask, 0.0);
  for (std::size_t i = 0; i < 7; ++i)
    EXPECT_EQ(router.route(env, inv), i % 3);
}

TEST(Router, RandomStaysInRangeAndIsSeedDeterministic) {
  const TinyWorld world;
  auto env = make_fleet(world, 4);
  const auto inv = TinyWorld::inv(world.fn_py_flask, 0.0);

  auto sequence = [&](std::uint64_t seed) {
    fleet::RandomRouter router(seed);
    router.on_episode_start(env);
    std::vector<std::size_t> out;
    for (int i = 0; i < 50; ++i) out.push_back(router.route(env, inv));
    return out;
  };
  const auto a = sequence(3);
  const auto b = sequence(3);
  EXPECT_EQ(a, b);
  for (const std::size_t node : a) EXPECT_LT(node, 4U);
  // All four nodes should appear in 50 draws.
  EXPECT_EQ(std::set<std::size_t>(a.begin(), a.end()).size(), 4U);
}

TEST(Router, LeastOutstandingPicksIdleNode) {
  const TinyWorld world;
  auto env = make_fleet(world, 2);
  fleet::LeastOutstandingRouter router;
  router.on_episode_start(env);

  // Run a short trace through warm-aware-free routing by hand: send one
  // long-running invocation to node 0 via a full episode, then check the
  // router prefers the idle node 1 while node 0 is busy.
  const sim::Trace trace = TinyWorld::make_trace(
      {TinyWorld::inv(world.fn_py_flask, 0.0, /*exec_s=*/100.0),
       TinyWorld::inv(world.fn_py_numpy, 0.1, /*exec_s=*/100.0)});
  // Route manually through the fleet run: both policies below exercise the
  // fleet; here we only check the router's tie-breaking and load logic via
  // a run that leaves node occupancy observable through the summary.
  const auto summary = env.run(trace, router);
  ASSERT_EQ(summary.per_node.size(), 2U);
  // First invocation goes to node 0 (tie -> lowest index); while it is
  // still executing, the second must go to node 1.
  EXPECT_EQ(summary.per_node[0].invocations, 1U);
  EXPECT_EQ(summary.per_node[1].invocations, 1U);
}

TEST(Router, ConsistentHashIsStableAndColocatesSharedStacks) {
  const TinyWorld world;
  auto env = make_fleet(world, 4);
  fleet::ConsistentHashRouter router;
  router.on_episode_start(env);

  const auto flask = TinyWorld::inv(world.fn_py_flask, 0.0);
  const auto numpy = TinyWorld::inv(world.fn_py_numpy, 0.0);
  const auto js = TinyWorld::inv(world.fn_js, 0.0);

  // Same function always maps to the same node.
  EXPECT_EQ(router.route(env, flask), router.route(env, flask));
  // Functions sharing OS + language (L2 pair) colocate: the affinity key
  // excludes the runtime level by design.
  EXPECT_EQ(router.route(env, flask), router.route(env, numpy));
  // A different language stack is allowed to map elsewhere (not asserted:
  // hashing may collide), but the mapping must be deterministic.
  EXPECT_EQ(router.route(env, js), router.route(env, js));
}

TEST(Router, ConsistentHashMovesFewKeysWhenFleetGrows) {
  const TinyWorld world;
  auto env4 = make_fleet(world, 4);
  auto env5 = make_fleet(world, 5);
  fleet::ConsistentHashRouter router(/*virtual_nodes=*/128);

  // With only 4 function types the key space is tiny; use all of them and
  // check that growing the fleet does not reshuffle every assignment (the
  // whole point of the ring vs. modulo hashing).
  const std::vector<sim::FunctionTypeId> fns = {
      world.fn_py_flask, world.fn_py_numpy, world.fn_js, world.fn_other_os};
  router.on_episode_start(env4);
  std::vector<std::size_t> before;
  for (const auto fn : fns)
    before.push_back(router.route(env4, TinyWorld::inv(fn, 0.0)));
  router.on_episode_start(env5);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < fns.size(); ++i)
    if (router.route(env5, TinyWorld::inv(fns[i], 0.0)) != before[i]) ++moved;
  EXPECT_LE(moved, fns.size() - 1) << "growing 4->5 nodes moved every key";
}

TEST(Router, WarmAwareRoutesToBestMatch) {
  const TinyWorld world;
  auto env = make_fleet(world, 3);
  fleet::WarmAwareRouter router;

  const sim::Trace trace = TinyWorld::make_trace(
      {TinyWorld::inv(world.fn_py_flask, 0.0, /*exec_s=*/0.1),
       TinyWorld::inv(world.fn_py_numpy, 60.0, /*exec_s=*/0.1),
       TinyWorld::inv(world.fn_other_os, 61.0, /*exec_s=*/0.1)});
  const auto summary = env.run(trace, router);
  ASSERT_EQ(summary.per_node.size(), 3U);
  // fn_py_flask finds every pool empty and falls back to the least
  // outstanding node: all idle, so node 0. fn_py_numpy chases its L2 match
  // there and is still starting at t=61 (its L2 start installs the runtime
  // packages, ~1.9 s). fn_other_os matches nothing anywhere and falls back
  // to the least outstanding node: node 0 is busy, so node 1.
  EXPECT_EQ(summary.per_node[0].invocations, 2U);
  EXPECT_EQ(summary.per_node[0].warm_l2, 1U);
  EXPECT_EQ(summary.per_node[1].invocations, 1U);
  EXPECT_EQ(summary.per_node[1].cold_starts, 1U);
  EXPECT_EQ(summary.per_node[2].invocations, 0U);
}

TEST(Router, IndexRoutersThrowOutsideARun) {
  const TinyWorld world;
  auto env = make_fleet(world, 3);
  const auto inv = TinyWorld::inv(world.fn_py_flask, 0.0);
  fleet::LeastOutstandingRouter least;
  fleet::WarmAwareRouter warm;
  least.on_episode_start(env);
  warm.on_episode_start(env);
  // Both read FleetEnv::index(), which exists only inside run().
  EXPECT_THROW((void)least.route(env, inv), util::CheckError);
  EXPECT_THROW((void)warm.route(env, inv), util::CheckError);
  // After a run the index is gone again.
  (void)env.run(TinyWorld::make_trace({inv}), warm);
  EXPECT_THROW((void)warm.route(env, inv), util::CheckError);
}

/// A fleet whose node 0 is down from t=2 to t=7 (recovery mid-trace), for
/// the failover/health-aware comparisons below.
fleet::FleetEnv make_crashy_fleet(const TinyWorld& world) {
  fleet::FleetConfig cfg;
  cfg.nodes = 4;
  cfg.node_env.pool_capacity_mb = 4096.0;
  cfg.seed = 5;
  cfg.faults.crashes.push_back({0, 2.0, 7.0, false, faults::kNoDomain});
  return fleet::FleetEnv(
      world.functions, world.catalog, world.cost_model(), cfg,
      fleet::uniform_system(policies::make_greedy_match_system));
}

sim::Trace crashy_trace(const TinyWorld& world) {
  std::vector<sim::Invocation> invs;
  for (int i = 0; i <= 120; ++i)
    invs.push_back(TinyWorld::inv(world.fn_py_flask, 0.25 * i, 0.1));
  return sim::Trace(std::move(invs));
}

TEST(Router, HealthAwareAvoidsRecoveredNodeLongerThanFailover) {
  const TinyWorld world;
  const sim::Trace trace = crashy_trace(world);

  auto run = [&](std::unique_ptr<fleet::Router> router) {
    auto env = make_crashy_fleet(world);
    return env.run(trace, *router);
  };
  // Bare Round-Robin: FleetEnv::run's failover rule moves what it aims at
  // the down node, and nothing keeps load off the node once it is back.
  const auto failover = run(std::make_unique<fleet::RoundRobinRouter>());
  // A slow EWMA (alpha 0.05) keeps node 0's failure estimate above the 0.3
  // threshold for ~15 routing decisions after it rejoins at t=7.
  const auto health = run(std::make_unique<fleet::HealthAwareRouter>(
      std::make_unique<fleet::RoundRobinRouter>(), /*alpha=*/0.05,
      /*threshold=*/0.3));

  // Both steer around the down node, so nothing is lost and the fleet
  // serves the full trace either way.
  EXPECT_GT(failover.rerouted, 0U);
  EXPECT_EQ(failover.lost, 0U);
  EXPECT_EQ(health.lost, 0U);
  EXPECT_EQ(failover.total.invocations, health.total.invocations);
  ASSERT_EQ(health.per_node.size(), 4U);
  // Failover replays load into node 0 the instant it recovers; the
  // health-aware wrapper sheds it until the EWMA decays.
  EXPECT_LT(health.per_node[0].invocations, failover.per_node[0].invocations);
  EXPECT_GT(health.per_node[0].invocations, 0U)
      << "the EWMA must eventually readmit the node";

  // Deterministic: a second health-aware run is bit-identical.
  const auto again = run(std::make_unique<fleet::HealthAwareRouter>(
      std::make_unique<fleet::RoundRobinRouter>(), 0.05, 0.3));
  EXPECT_EQ(again.per_node[0].invocations, health.per_node[0].invocations);
  EXPECT_DOUBLE_EQ(again.total.total_latency_s, health.total.total_latency_s);
}

TEST(Router, WrapperSpecsComposeNames) {
  auto specs = fleet::standard_routers();
  const auto health = fleet::with_health_aware(specs[1], 0.05, 0.3);
  EXPECT_NE(health.name.find("Health-Aware("), std::string::npos);
  EXPECT_EQ(health.make()->name(), health.name);
}

TEST(Router, FailOverKeepsUpTargetsAndMovesToTheLeastLoadedHealthyNode) {
  const TinyWorld world;
  auto env = make_fleet(world, 3);
  for (std::size_t n = 0; n < 3; ++n) env.node_env(n).reset_streaming();
  // Node 1 runs one execution; node 0 goes down.
  sim::ClusterEnv& busy = env.node_env(1);
  const sim::Invocation inv = TinyWorld::inv(world.fn_py_flask, 0.0, 5.0);
  busy.offer(inv);
  (void)busy.step(sim::Action::cold());
  env.node_env(0).crash(0.5);
  fleet::FleetIndex index(3, /*track_warm=*/false);
  for (std::size_t n = 0; n < 3; ++n) index.update(n, env.node(n));

  const fleet::Placement kept = fleet::fail_over(index, 1);
  EXPECT_EQ(kept.node, 1U);
  EXPECT_FALSE(kept.rerouted);
  EXPECT_FALSE(kept.lost);
  const fleet::Placement moved = fleet::fail_over(index, 0);
  EXPECT_EQ(moved.node, 2U);  // idle beats node 1's one execution
  EXPECT_TRUE(moved.rerouted);
  EXPECT_FALSE(moved.lost);

  // Only routable nodes take over; with none healthy the request is lost.
  index.set_routable(2, false);
  EXPECT_EQ(fleet::fail_over(index, 0).node, 1U);
  env.node_env(1).crash(0.6);
  index.update(1, env.node(1));
  const fleet::Placement lost = fleet::fail_over(index, 0);
  EXPECT_TRUE(lost.lost);
  EXPECT_FALSE(lost.rerouted);
  EXPECT_EQ(lost.node, 0U);
}

TEST(Router, StandardRoutersExposeAllFivePolicies) {
  const auto routers = fleet::standard_routers();
  ASSERT_EQ(routers.size(), 5U);
  std::set<std::string> names;
  for (const auto& r : routers) {
    auto instance = r.make();
    ASSERT_NE(instance, nullptr);
    EXPECT_EQ(instance->name(), r.name);
    names.insert(r.name);
  }
  EXPECT_EQ(names.size(), 5U);
}

}  // namespace
}  // namespace mlcr
