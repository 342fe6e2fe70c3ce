// Warm-index property test: FleetIndex::nodes_matching against a brute-force
// Table-I scan of every pool. Three hand-driven nodes cover every way a
// pool or a pooled image changes — cold starts, L1/L2 repacks, union
// (Zygote) growth into images no function has, LRU evictions, KeepAlive
// TTL expiry, full and partial crashes, recovery — and after every touch
// the index must list, for every function and level, exactly the nodes
// whose idle containers match at that level or better, with their counts.
#include "fleet/fleet_index.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "containers/matching.hpp"
#include "policies/baselines.hpp"
#include "policies/zygote.hpp"
#include "testing/fixtures.hpp"
#include "util/rng.hpp"

namespace mlcr::fleet {
namespace {

using containers::MatchLevel;
using mlcr::testing::TinyWorld;

constexpr std::array<MatchLevel, 3> kLevels = {
    MatchLevel::kL1, MatchLevel::kL2, MatchLevel::kL3};

/// Every function and level: the index's answer equals the scan's.
void expect_index_matches_pools(
    const FleetIndex& index, const sim::FunctionTable& functions,
    const std::vector<std::unique_ptr<sim::ClusterEnv>>& envs,
    const std::string& when) {
  for (const sim::FunctionType& fn : functions.all()) {
    for (const MatchLevel level : kLevels) {
      std::vector<FleetIndex::NodeCount> scan;
      for (std::size_t n = 0; n < envs.size(); ++n) {
        std::size_t count = 0;
        for (const containers::Container* c : envs[n]->pool().idle_containers())
          if (containers::match(fn.image, c->image) >= level) ++count;
        if (count > 0) scan.push_back({n, count});
      }
      const auto* indexed = index.nodes_matching(fn.level_keys, level);
      const std::vector<FleetIndex::NodeCount> got =
          indexed == nullptr ? std::vector<FleetIndex::NodeCount>{} : *indexed;
      ASSERT_EQ(got, scan) << fn.name << " at "
                           << containers::to_string(level) << " after "
                           << when;
    }
  }
}

TEST(FleetWarmIndex, MatchesABruteForceScanAfterEveryTouch) {
  TinyWorld world;
  const sim::StartupCostModel cost = world.cost_model();
  // Node 0: repack reuse, a pool of about three containers (LRU
  // evictions). Node 1: KeepAlive (reject when full, 1.5 s TTL). Node 2:
  // union reuse, so containers grow into images no function has.
  std::vector<std::unique_ptr<sim::ClusterEnv>> envs;
  sim::EnvConfig repack_cfg;
  repack_cfg.pool_capacity_mb = 520.0;
  envs.push_back(std::make_unique<sim::ClusterEnv>(
      world.functions, world.catalog, cost, repack_cfg,
      [] { return std::make_unique<containers::LruEviction>(); }));
  sim::EnvConfig keep_alive_cfg;
  keep_alive_cfg.pool_capacity_mb = 1024.0;
  keep_alive_cfg.keep_alive_ttl_s = 1.5;
  envs.push_back(std::make_unique<sim::ClusterEnv>(
      world.functions, world.catalog, cost, keep_alive_cfg,
      [] { return std::make_unique<containers::RejectWhenFull>(); }));
  sim::EnvConfig union_cfg;
  union_cfg.pool_capacity_mb = 900.0;
  union_cfg.reuse_semantics = sim::ReuseSemantics::kUnion;
  envs.push_back(std::make_unique<sim::ClusterEnv>(
      world.functions, world.catalog, cost, union_cfg,
      [] { return std::make_unique<containers::LruEviction>(); }));
  policies::RandomScheduler random(11);
  policies::GreedyMatchScheduler greedy;
  policies::ZygoteScheduler zygote;
  const std::vector<policies::Scheduler*> schedulers = {&random, &greedy,
                                                        &zygote};

  FleetIndex index(envs.size(), /*track_warm=*/true);
  for (std::size_t n = 0; n < envs.size(); ++n) {
    envs[n]->reset_streaming();
    index.update(n, *envs[n]);
  }

  util::Rng rng(2024);
  const std::size_t fn_count = world.functions.size();
  double t = 0.0;
  std::size_t repacks = 0, unions = 0, crashes = 0, recoveries = 0;
  for (std::size_t i = 0; i < 600; ++i) {
    t += rng.exponential(4.0);
    const std::size_t n = rng.uniform_index(envs.size());
    sim::ClusterEnv& env = *envs[n];
    const std::string when = "touch " + std::to_string(i) + " of node " +
                             std::to_string(n);
    const std::uint64_t roll = rng.uniform_index(100);
    if (env.down()) {
      if (roll < 40) {
        env.recover(t);
        ++recoveries;
      } else {
        continue;
      }
    } else if (roll < 3) {
      env.crash(t, /*partial=*/roll < 1);
      ++crashes;
    } else if (roll < 10) {
      env.advance_to(t);
    } else {
      const auto fn = static_cast<sim::FunctionTypeId>(
          rng.uniform_index(fn_count));
      env.offer(TinyWorld::inv(fn, t, rng.uniform(0.05, 1.0)));
      index.update(n, env);
      expect_index_matches_pools(index, world.functions, envs,
                                 when + " (offer)");
      const sim::StepResult r =
          env.step(schedulers[n]->decide(env, env.current()));
      if (!r.cold && r.match != MatchLevel::kL3) {
        if (n == 2)
          ++unions;
        else
          ++repacks;
      }
    }
    index.update(n, env);
    expect_index_matches_pools(index, world.functions, envs, when);
    if (::testing::Test::HasFatalFailure()) return;
  }

  // The walk exercised every transition the index has to follow.
  EXPECT_GT(repacks, 0U);
  EXPECT_GT(unions, 0U);
  EXPECT_GT(crashes, 0U);
  EXPECT_GT(recoveries, 0U);
  EXPECT_GT(envs[0]->pool().eviction_count(), 0U) << "no LRU eviction";
  EXPECT_GT(envs[1]->pool().eviction_count(), 0U) << "no TTL expiry";
  index.audit();
}

}  // namespace
}  // namespace mlcr::fleet
