// ShardedFleetIndex: one FleetIndex behind one shared_mutex. read() must
// forward the index's own errors, and the lock must hold up under
// concurrent readers and writers (the suite runs under TSan in CI).
#include "serve/sharded_index.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "fleet/fleet_index.hpp"
#include "fleet/router.hpp"
#include "policies/baselines.hpp"
#include "testing/fixtures.hpp"
#include "util/check.hpp"

namespace mlcr::serve {
namespace {

using mlcr::testing::TinyWorld;

TEST(ServeShardedIndex, RejectsWarmLookupWhenNotTracking) {
  TinyWorld world;
  const ShardedFleetIndex index(2, false);
  EXPECT_FALSE(index.tracks_warm());
  const auto& image = world.functions.get(world.fn_py_flask).image;
  const auto lookup = [&](const fleet::FleetIndex& fleet) {
    return fleet.nodes_matching(image, containers::MatchLevel::kL1) != nullptr;
  };
  EXPECT_THROW((void)index.read(lookup), util::CheckError);
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
    const auto& image = world.functions.get(world.fn_py_flask).image;
    while (!stop.load()) {
      const std::size_t best = index.read([&](const fleet::FleetIndex& f) {
        (void)f.least_outstanding_healthy();
        (void)f.nodes_matching(image, containers::MatchLevel::kL3);
        (void)fleet::fail_over(f, f.least_outstanding());
        return fleet::warm_aware_node(f, image);
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
