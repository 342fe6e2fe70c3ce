// ShardedFleetIndex: one FleetIndex behind one shared_mutex. read() must
// forward the index's own errors, the state-blind policies must draw only
// over its routable nodes, and the lock must hold up under concurrent
// readers and writers (the suite runs under TSan in CI).
#include "serve/sharded_index.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "fleet/fleet_index.hpp"
#include "fleet/router.hpp"
#include "policies/baselines.hpp"
#include "serve/policy.hpp"
#include "testing/fixtures.hpp"
#include "util/check.hpp"

namespace mlcr::serve {
namespace {

using mlcr::testing::TinyWorld;

TEST(ServeShardedIndex, RejectsWarmLookupWhenNotTracking) {
  TinyWorld world;
  const ShardedFleetIndex index(2, false);
  EXPECT_FALSE(index.tracks_warm());
  const auto& keys = world.functions.get(world.fn_py_flask).level_keys;
  const auto lookup = [&](const fleet::FleetIndex& fleet) {
    return fleet.nodes_matching(keys, containers::MatchLevel::kL1) != nullptr;
  };
  EXPECT_THROW((void)index.read(lookup), util::CheckError);
}

/// A cold spare outside the routable set is never picked by Random or
/// Round-Robin; once admitted, Round-Robin takes it into its cycle with
/// fleet::RoundRobinRouter's rule, next = (next + 1) % routable.
TEST(ServeShardedIndex, RandomAndRoundRobinDrawOnlyOverRoutableNodes) {
  TinyWorld world;
  const auto inv = TinyWorld::inv(world.fn_py_flask, 0.0);
  ShardedFleetIndex index(5, false);
  index.set_routable(4, false);
  EXPECT_EQ(index.read([](const fleet::FleetIndex& fleet) {
              return fleet.routable_count();
            }),
            4U);

  RouterPolicy random(std::make_unique<fleet::RandomRouter>(3));
  random.on_episode_start(4);
  for (int i = 0; i < 200; ++i)
    EXPECT_LT(random.route(index, world.functions, inv), 4U);

  RoundRobinPolicy round_robin;
  round_robin.on_episode_start(4);
  std::vector<std::size_t> picks;
  for (int i = 0; i < 6; ++i)
    picks.push_back(round_robin.route(index, world.functions, inv));
  index.set_routable(4, true);
  for (int i = 0; i < 4; ++i)
    picks.push_back(round_robin.route(index, world.functions, inv));
  EXPECT_EQ(picks, (std::vector<std::size_t>{0, 1, 2, 3, 0, 1, 2, 3, 4, 0}));
}

/// Writers mutate their own nodes' envs and update the index while a reader
/// hammers every query path — the index lock must keep this race-free.
TEST(ServeShardedIndex, ConcurrentReadersAndWritersAreRaceFree) {
  TinyWorld world;
  constexpr std::size_t kNodes = 8;
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kStepsPerNode = 120;
  const sim::StartupCostModel cost = world.cost_model();
  std::vector<std::unique_ptr<sim::ClusterEnv>> envs;
  sim::EnvConfig env_cfg;
  env_cfg.pool_capacity_mb = 2048.0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    envs.push_back(std::make_unique<sim::ClusterEnv>(
        world.functions, world.catalog, cost, env_cfg,
        [] { return std::make_unique<containers::LruEviction>(); }));
    envs.back()->reset_streaming();
  }
  ShardedFleetIndex index(kNodes, /*track_warm=*/true);
  for (std::size_t n = 0; n < kNodes; ++n) index.update(n, *envs[n]);

  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      policies::GreedyMatchScheduler scheduler;
      // Each writer owns nodes w, w + kWriters, ... — env mutation is
      // single-owner; only the index is contended.
      for (std::size_t step = 0; step < kStepsPerNode; ++step) {
        for (std::size_t n = w; n < kNodes; n += kWriters) {
          sim::ClusterEnv& env = *envs[n];
          const sim::Invocation inv = TinyWorld::inv(
              world.fn_py_flask, env.now() + 0.01, 0.05);
          env.offer(inv);
          (void)env.step(scheduler.decide(env, inv));
          index.update(n, env);
        }
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    const auto inv = TinyWorld::inv(world.fn_py_flask, 0.0);
    const auto& keys = world.functions.get(inv.function).level_keys;
    fleet::WarmAwareRouter warm_aware;
    while (!stop.load()) {
      const std::size_t best = index.read([&](const fleet::FleetIndex& f) {
        (void)f.least_outstanding_healthy();
        (void)f.nodes_matching(keys, containers::MatchLevel::kL3);
        (void)fleet::fail_over(f, f.least_outstanding());
        return warm_aware.pick(f, world.functions, inv);
      });
      EXPECT_LT(best, kNodes);
    }
  });
  for (std::size_t w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true);
  reader.join();
  EXPECT_LT(index.read([](const fleet::FleetIndex& f) {
              return f.least_outstanding();
            }),
            kNodes);
}

}  // namespace
}  // namespace mlcr::serve
