// SchedulerService: deterministic reject/degrade backpressure on the
// single-threaded pump path, request conservation under concurrent
// ingestion (runs under TSan in CI), and MLCR fleets served one request at
// a time through the shared agent.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/mlcr.hpp"
#include "fleet/fleet_env.hpp"
#include "policies/baselines.hpp"
#include "testing/fixtures.hpp"

namespace mlcr::serve {
namespace {

using mlcr::testing::TinyWorld;

fleet::FleetEnv make_fleet(const TinyWorld& world,
                           const sim::StartupCostModel& cost,
                           std::size_t nodes) {
  fleet::FleetConfig cfg;
  cfg.nodes = nodes;
  cfg.node_env.pool_capacity_mb = 2048.0;
  return fleet::FleetEnv(world.functions, world.catalog, cost, cfg,
                         fleet::uniform_system(
                             policies::make_greedy_match_system));
}

TEST(ServeService, DeterministicBackpressureAccounting) {
  TinyWorld world;
  const sim::StartupCostModel cost = world.cost_model();
  fleet::FleetEnv fleet = make_fleet(world, cost, 4);
  SimClock clock;
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.shards = 2;
  cfg.queue_capacity = 8;
  cfg.degrade_depth = 4;
  cfg.batch = 8;
  SchedulerService service(fleet, clock,
                           std::make_unique<LeastOutstandingPolicy>(), cfg);
  service.begin_episode();

  // 12 submissions into a queue of 8 with degradation from depth 4: the
  // first 4 are accepted normally, the next 4 accepted degraded, the last
  // 4 rejected — each count is exact because nothing drains in between.
  for (std::size_t i = 0; i < 12; ++i) {
    sim::Invocation inv = TinyWorld::inv(world.fn_py_flask,
                                         0.1 * static_cast<double>(i), 0.3);
    inv.seq = i;
    const bool accepted = service.submit(inv);
    EXPECT_EQ(accepted, i < 8) << "submission " << i;
  }
  EXPECT_EQ(service.pump_once(), 8U);

  const ServeSummary summary = service.finish_episode();
  EXPECT_EQ(summary.stats.submitted, 12U);
  EXPECT_EQ(summary.stats.routed, 8U);
  EXPECT_EQ(summary.stats.rejected, 4U);
  EXPECT_EQ(summary.stats.degraded, 4U);
  EXPECT_EQ(summary.stats.lost, 0U);
  EXPECT_EQ(summary.fleet.total.invocations, 8U);
  // Degraded requests are forced cold starts; with one function and warm
  // reuse available, only the degraded tail plus first-touch starts stay
  // cold.
  EXPECT_GE(summary.fleet.total.cold_starts, 4U);
  EXPECT_EQ(summary.fleet.system, "Greedy-Match");
  EXPECT_EQ(summary.fleet.router, "Least-Outstanding");
}

TEST(ServeService, PumpIsDeterministicAcrossRuns) {
  TinyWorld world;
  const sim::StartupCostModel cost = world.cost_model();
  const auto run_once = [&]() -> ServeSummary {
    fleet::FleetEnv fleet = make_fleet(world, cost, 3);
    SimClock clock;
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.shards = 3;
    cfg.queue_capacity = 64;
    cfg.batch = 4;
    SchedulerService service(fleet, clock,
                             std::make_unique<WarmAwarePolicy>(), cfg);
    service.begin_episode();
    const sim::FunctionTypeId fns[] = {world.fn_py_flask, world.fn_py_numpy,
                                       world.fn_js};
    for (std::size_t i = 0; i < 30; ++i) {
      sim::Invocation inv = TinyWorld::inv(
          fns[i % 3], 0.2 * static_cast<double>(i), 0.4);
      inv.seq = i;
      EXPECT_TRUE(service.submit(inv));
    }
    (void)service.pump_once();
    return service.finish_episode();
  };
  const ServeSummary a = run_once();
  const ServeSummary b = run_once();
  EXPECT_EQ(a.fleet.total.invocations, b.fleet.total.invocations);
  EXPECT_EQ(a.fleet.total.cold_starts, b.fleet.total.cold_starts);
  EXPECT_EQ(a.fleet.total.warm_l2, b.fleet.total.warm_l2);
  EXPECT_EQ(a.fleet.total.warm_l3, b.fleet.total.warm_l3);
  EXPECT_DOUBLE_EQ(a.fleet.total.total_latency_s,
                   b.fleet.total.total_latency_s);
  EXPECT_EQ(a.stats.routed, b.stats.routed);
}

/// Four producer threads against four workers: whatever interleaving the
/// scheduler picks, every submission must land in exactly one of
/// routed/rejected/lost, and the node metrics must account for every routed
/// request (finish_episode() checks both invariants internally too).
TEST(ServeService, ConcurrentIngestConservesRequests) {
  TinyWorld world;
  const sim::StartupCostModel cost = world.cost_model();
  fleet::FleetEnv fleet = make_fleet(world, cost, 8);
  WallClock clock;
  ServeConfig cfg;
  cfg.workers = 4;
  cfg.shards = 4;
  cfg.queue_capacity = 4096;
  cfg.batch = 16;
  SchedulerService service(fleet, clock, std::make_unique<WarmAwarePolicy>(),
                           cfg);
  service.begin_episode();
  service.start();

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 500;
  const sim::FunctionTypeId fns[] = {world.fn_py_flask, world.fn_py_numpy,
                                     world.fn_js, world.fn_other_os};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        sim::Invocation inv = TinyWorld::inv(
            fns[(p + i) % 4], 0.001 * static_cast<double>(i), 0.02);
        inv.seq = p * kPerProducer + i;
        (void)service.submit(inv);
      }
    });
  }
  for (auto& producer : producers) producer.join();

  const ServeSummary summary = service.finish_episode();
  EXPECT_EQ(summary.stats.submitted, kProducers * kPerProducer);
  EXPECT_EQ(summary.stats.submitted,
            summary.stats.routed + summary.stats.rejected + summary.stats.lost);
  EXPECT_EQ(summary.stats.lost, 0U);  // faultless fleet: no node ever down
  EXPECT_EQ(summary.fleet.total.invocations, summary.stats.routed);
  EXPECT_GT(summary.stats.batches, 0U);
}

/// A small untrained network: routing and accounting, not decision
/// quality, are under test.
core::MlcrConfig small_mlcr_config() {
  core::MlcrConfig cfg = core::make_default_mlcr_config(/*num_slots=*/4,
                                                        /*embed_dim=*/16);
  cfg.dqn.network.ffn_dim = 32;
  return cfg;
}

/// `nodes` MLCR nodes, all backed by the one `agent`.
fleet::FleetEnv make_mlcr_fleet(const TinyWorld& world,
                                const sim::StartupCostModel& cost,
                                const std::shared_ptr<rl::DqnAgent>& agent,
                                const core::MlcrConfig& mlcr_cfg,
                                std::size_t nodes) {
  fleet::FleetConfig cfg;
  cfg.nodes = nodes;
  cfg.node_env.pool_capacity_mb = 2048.0;
  return fleet::FleetEnv(world.functions, world.catalog, cost, cfg,
                         fleet::uniform_system([&] {
                           return core::make_mlcr_system(agent,
                                                         mlcr_cfg.encoder);
                         }));
}

/// Round-Robin that counts its route() calls.
class CountingRoundRobin final : public RoutePolicy {
 public:
  explicit CountingRoundRobin(std::size_t& calls) : calls_(calls) {}
  void on_episode_start(std::size_t node_count) override {
    inner_.on_episode_start(node_count);
  }
  [[nodiscard]] std::size_t route(const ShardedFleetIndex& index,
                                  const sim::FunctionTable& functions,
                                  const sim::Invocation& inv) override {
    ++calls_;
    return inner_.route(index, functions, inv);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  RoundRobinPolicy inner_;
  std::size_t& calls_;
};

TEST(ServeService, MlcrPumpRoutesEachRequestOnceInRoundRobinOrder) {
  TinyWorld world;
  const sim::StartupCostModel cost = world.cost_model();
  const core::MlcrConfig mlcr_cfg = small_mlcr_config();
  const auto agent =
      std::make_shared<rl::DqnAgent>(mlcr_cfg.dqn, util::Rng(5));
  fleet::FleetEnv fleet = make_mlcr_fleet(world, cost, agent, mlcr_cfg, 4);

  SimClock clock;
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.shards = 2;
  cfg.queue_capacity = 64;
  cfg.batch = 8;
  std::size_t route_calls = 0;
  SchedulerService service(
      fleet, clock, std::make_unique<CountingRoundRobin>(route_calls), cfg);
  service.begin_episode();
  EXPECT_TRUE(service.mlcr_mode());

  for (std::size_t i = 0; i < 16; ++i) {
    sim::Invocation inv = TinyWorld::inv(world.fn_py_flask,
                                         0.1 * static_cast<double>(i), 0.3);
    inv.seq = i;
    ASSERT_TRUE(service.submit(inv));
  }
  EXPECT_EQ(service.pump_once(), 16U);

  const ServeSummary summary = service.finish_episode();
  // One route per request, each served where Round-Robin sent it — the
  // placement FleetEnv::run makes with the same router.
  EXPECT_EQ(route_calls, 16U);
  for (std::size_t node = 0; node < 4; ++node)
    for (const sim::InvocationRecord& rec :
         fleet.node_env(node).metrics().records())
      EXPECT_EQ(rec.seq % 4, node) << "seq " << rec.seq;
  EXPECT_EQ(summary.stats.routed, 16U);
  EXPECT_EQ(summary.stats.inference_calls, 16U);
  EXPECT_EQ(summary.stats.max_wave, 1U);
  EXPECT_EQ(summary.fleet.total.invocations, 16U);
  EXPECT_EQ(summary.fleet.system, "MLCR");
}

/// Two workers dispatch to four MLCR nodes that share one agent: its
/// forward pass writes layer caches, so the service must serialize decide()
/// (TSan flags the race otherwise). Every non-degraded routed request is
/// one decide() call.
TEST(ServeService, LiveMlcrWorkersShareOneAgent) {
  TinyWorld world;
  const sim::StartupCostModel cost = world.cost_model();
  const core::MlcrConfig mlcr_cfg = small_mlcr_config();
  const auto agent =
      std::make_shared<rl::DqnAgent>(mlcr_cfg.dqn, util::Rng(5));
  fleet::FleetEnv fleet = make_mlcr_fleet(world, cost, agent, mlcr_cfg, 4);

  WallClock clock;
  ServeConfig cfg;
  cfg.workers = 2;
  cfg.shards = 4;
  cfg.queue_capacity = 256;
  cfg.degrade_depth = 64;
  cfg.batch = 8;
  SchedulerService service(fleet, clock, std::make_unique<RoundRobinPolicy>(),
                           cfg);
  service.begin_episode();
  ASSERT_TRUE(service.mlcr_mode());
  service.start();

  constexpr std::size_t kProducers = 2;
  constexpr std::size_t kPerProducer = 200;
  const sim::FunctionTypeId fns[] = {world.fn_py_flask, world.fn_py_numpy,
                                     world.fn_js, world.fn_other_os};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        sim::Invocation inv = TinyWorld::inv(
            fns[(p + i) % 4], 0.001 * static_cast<double>(i), 0.02);
        inv.seq = p * kPerProducer + i;
        (void)service.submit(inv);
      }
    });
  }
  for (auto& producer : producers) producer.join();

  const ServeSummary summary = service.finish_episode();
  const ServeStats& s = summary.stats;
  EXPECT_EQ(s.submitted, kProducers * kPerProducer);
  EXPECT_EQ(s.submitted, s.routed + s.rejected + s.lost);
  EXPECT_EQ(s.inference_calls, s.routed - s.degraded);
  EXPECT_EQ(summary.fleet.total.invocations, s.routed);
}

TEST(ServeService, RejectsFleetsMixingMlcrAndHeuristicNodes) {
  TinyWorld world;
  const sim::StartupCostModel cost = world.cost_model();
  const core::MlcrConfig mlcr_cfg = small_mlcr_config();
  const auto agent =
      std::make_shared<rl::DqnAgent>(mlcr_cfg.dqn, util::Rng(5));
  fleet::FleetConfig fleet_cfg;
  fleet_cfg.nodes = 2;
  fleet_cfg.node_env.pool_capacity_mb = 2048.0;
  fleet::FleetEnv fleet(
      world.functions, world.catalog, cost, fleet_cfg,
      [&](std::size_t node, util::Rng rng) {
        (void)rng;
        if (node == 0) return core::make_mlcr_system(agent, mlcr_cfg.encoder);
        return policies::make_greedy_match_system();
      });
  SimClock clock;
  SchedulerService service(fleet, clock, std::make_unique<RoundRobinPolicy>(),
                           ServeConfig{});
  EXPECT_THROW(service.begin_episode(), util::CheckError);
}

}  // namespace
}  // namespace mlcr::serve
