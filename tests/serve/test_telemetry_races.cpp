// TSan targets for the telemetry plane (the suite runs under the sanitizer
// job in CI): BoundedQueue's close() racing producers and draining
// consumers must conserve every accepted item; ConcurrentMetricsRegistry
// snapshots must merge safely while writers record; and a live
// SchedulerService with telemetry attached — producers hammering submit(),
// a reader merging the registry mid-episode — must keep the service's own
// accounting and the telemetry counters in perfect agreement.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "fleet/fleet_env.hpp"
#include "obs/concurrent.hpp"
#include "obs/schema_check.hpp"
#include "obs/sink.hpp"
#include "obs/tracer.hpp"
#include "policies/baselines.hpp"
#include "serve/queue.hpp"
#include "serve/service.hpp"
#include "serve/telemetry.hpp"
#include "testing/fixtures.hpp"

namespace mlcr::serve {
namespace {

using mlcr::testing::TinyWorld;

TEST(ServeTelemetryRaces, QueueCloseRacingProducersAndConsumersLosesNothing) {
  BoundedQueue<int> queue(256);
  constexpr std::size_t kProducers = 4;
  constexpr int kPerProducer = 5000;
  std::atomic<std::size_t> accepted{0};
  std::atomic<std::size_t> consumed{0};

  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i)
        if (queue.try_push(i)) accepted.fetch_add(1);
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      std::vector<int> out;
      for (;;) {
        out.clear();
        const std::size_t n = queue.pop_batch(out, 64);
        if (n == 0) return;  // closed and fully drained
        consumed.fetch_add(n);
      }
    });
  }
  // Close mid-flight: pushes past this point fail, consumers drain the
  // remainder and then see the shutdown signal.
  queue.close();
  for (auto& thread : threads) thread.join();

  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(consumed.load(), accepted.load());
  EXPECT_EQ(queue.size(), 0U);
}

TEST(ServeTelemetryRaces, RegistrySnapshotMergesWhileWritersRecord) {
  obs::ConcurrentMetricsRegistry registry(4);
  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kPerWriter = 3000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        registry.add("events");
        registry.record("latency_s", 0.001 * static_cast<double>(i % 100));
        registry.set_gauge("depth", static_cast<double>(i));
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load()) {
      const obs::MetricsRegistry cut = registry.snapshot();
      const auto it = cut.counters().find("events");
      if (it != cut.counters().end()) {
        EXPECT_LE(it->second.value(), kWriters * kPerWriter);
      }
    }
  });
  for (auto& writer : writers) writer.join();
  stop.store(true);
  reader.join();

  const obs::MetricsRegistry final_cut = registry.snapshot();
  EXPECT_EQ(final_cut.counters().at("events").value(),
            kWriters * kPerWriter);
  EXPECT_EQ(final_cut.histograms().at("latency_s").count(),
            kWriters * kPerWriter);
}

TEST(ServeTelemetryRaces, LiveServiceWithTelemetryConservesAccounting) {
  TinyWorld world;
  const sim::StartupCostModel cost = world.cost_model();
  fleet::FleetConfig fleet_cfg;
  fleet_cfg.nodes = 8;
  fleet_cfg.node_env.pool_capacity_mb = 2048.0;
  fleet::FleetEnv fleet(world.functions, world.catalog, cost, fleet_cfg,
                        fleet::uniform_system(
                            policies::make_greedy_match_system));
  WallClock clock;

  constexpr std::size_t kProducers = 4;
  std::ostringstream trace_out;
  obs::Tracer tracer;
  tracer.add_sink(std::make_shared<obs::ChromeTraceSink>(trace_out));
  TelemetryConfig tcfg;
  tcfg.registry_slots = 4 + kProducers;
  Telemetry telemetry(tcfg, &tracer);

  ServeConfig cfg;
  cfg.workers = 4;
  cfg.shards = 4;
  cfg.queue_capacity = 4096;
  cfg.batch = 16;
  SchedulerService service(
      fleet, clock,
      std::make_unique<RouterPolicy>(
          std::make_unique<fleet::WarmAwareRouter>()),
      cfg);
  service.set_telemetry(&telemetry);
  service.begin_episode();
  service.start();

  constexpr std::size_t kPerProducer = 400;
  const sim::FunctionTypeId fns[] = {world.fn_py_flask, world.fn_py_numpy,
                                     world.fn_js, world.fn_other_os};
  std::vector<std::thread> producers;
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
  // The merge-under-writer case: snapshot the concurrent registry while
  // the workers and producers are recording into it.
  std::atomic<bool> stop{false};
  std::thread merger([&] {
    while (!stop.load()) (void)telemetry.metrics();
  });
  for (auto& producer : producers) producer.join();
  stop.store(true);
  merger.join();

  const ServeSummary summary = service.finish_episode();
  tracer.close();

  EXPECT_EQ(summary.stats.submitted, kProducers * kPerProducer);
  EXPECT_EQ(summary.stats.submitted,
            summary.stats.routed + summary.stats.rejected +
                summary.stats.lost);

  const obs::MetricsRegistry merged = telemetry.metrics();
  EXPECT_EQ(merged.counters().at("serve.submitted").value(),
            summary.stats.submitted);
  EXPECT_EQ(merged.counters().at("serve.routed").value(),
            summary.stats.routed);
  // Every started flow ended (the trace was emitted under real contention).
  const auto report = obs::check_trace_json(trace_out.str());
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_TRUE(report.flows_ok())
      << (report.flow_errors.empty() ? "" : report.flow_errors[0]);
}

}  // namespace
}  // namespace mlcr::serve
