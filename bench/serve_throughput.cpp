// Serving front-end throughput (DESIGN.md §11): how fast the concurrent
// scheduler service makes routing decisions over its locked fleet index,
// and how fast the full ingest -> route -> dispatch path serves requests.
//
// Phase 1 (route-only): worker threads hammer RoutePolicy::route() for each
// standard policy against a pre-seeded index — no dispatch, no queues — at
// min(4, hardware threads) threads. Every index-reading policy takes the
// index's one shared lock per decision. The headline events_per_sec is the
// Least-Outstanding decision rate.
//
// Phase 2 (full service): producer threads submit() into a started
// SchedulerService over a 64-node greedy-match fleet on the wall clock,
// retrying rejected pushes, and the end-to-end served rate is reported. The
// telemetry plane (DESIGN.md §13) rides along in metrics-only mode, and its
// route/e2e latency percentiles land in the JSON metrics block. Workers and
// producers share the same thread cap (2 producers, the rest workers); on
// fewer than 3 hardware threads they outnumber them, and the bench says so.
//
// Phase 3 (deterministic replay): the same workload through run_replay on a
// SimClock with the full telemetry plane attached — Chrome trace with
// request flow events (--trace), flight-recorder snapshot JSONL
// (--snapshots). Byte-identical across runs; CI's serve-telemetry-smoke job
// runs it with --replay-only, which skips the wall-clock phases entirely.
//
// With --json the headline plus per-policy, service, and replay rates are
// written in the stable bench schema for tools/benchdiff / CI perf-smoke.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstddef>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "fleet/fleet_env.hpp"
#include "serve/clock.hpp"
#include "serve/policy.hpp"
#include "serve/service.hpp"
#include "serve/sharded_index.hpp"
#include "serve/telemetry.hpp"
#include "util/wall_clock.hpp"

namespace {

using namespace mlcr;

constexpr std::size_t kNodes = 64;

fleet::FleetEnv make_fleet(const benchtools::Suite& suite) {
  fleet::FleetConfig cfg;
  cfg.nodes = kNodes;
  cfg.node_env.pool_capacity_mb = 1024.0;
  cfg.seed = 100;
  return fleet::FleetEnv(suite.bench.functions, suite.bench.catalog,
                         suite.cost,
                         cfg, fleet::uniform_system(
                                  policies::make_greedy_match_system));
}

/// Put every node into a streaming episode and run a few invocations through
/// it so the index (including the warm side) reflects a working fleet, not
/// an empty one. Executions are drained so the containers sit idle-warm.
void prewarm(fleet::FleetEnv& fleet, const sim::Trace& trace) {
  const std::size_t kPrewarm = 4;
  for (std::size_t n = 0; n < fleet.node_count(); ++n) {
    sim::ClusterEnv& env = fleet.node_env(n);
    policies::Scheduler& scheduler = fleet.node_scheduler(n);
    env.reset_streaming();
    scheduler.on_episode_start(env);
    double last_arrival = 0.0;
    for (std::size_t i = 0; i < kPrewarm && i < trace.size(); ++i) {
      const sim::Invocation& inv = trace.at(i);
      env.offer(inv);
      const sim::StepResult result = env.step(scheduler.decide(env, inv));
      scheduler.on_step_result(env, result);
      last_arrival = inv.arrival_s;
    }
    env.advance_idle(last_arrival + 1.0);
  }
}

/// Load every node of the (pre-warmed) fleet into `index`.
void seed_index(serve::ShardedFleetIndex& index, fleet::FleetEnv& fleet) {
  for (std::size_t n = 0; n < fleet.node_count(); ++n)
    index.update(n, fleet.node_env(n));
}

/// Run `decisions` route() calls split across `threads` threads against a
/// shared policy instance; returns decisions per second. The picked node
/// indices feed an atomic sink so the calls cannot be optimized away.
double measure_route(serve::RoutePolicy& policy,
                     const serve::ShardedFleetIndex& index,
                     const sim::FunctionTable& functions,
                     const sim::Trace& trace, std::size_t threads,
                     std::size_t decisions) {
  std::atomic<std::size_t> sink{0};
  const std::size_t per_thread = decisions / threads;
  const auto worker = [&](std::size_t tid) {
    const auto& invs = trace.invocations();
    std::size_t local = 0;
    std::size_t cursor = tid * 131;  // decorrelate the per-thread streams
    for (std::size_t i = 0; i < per_thread; ++i, ++cursor)
      local += policy.route(index, functions, invs[cursor % invs.size()]);
    sink.fetch_add(local, std::memory_order_relaxed);
  };

  const std::int64_t t0 = util::wall_now_us();
  if (threads == 1) {
    worker(0);
  } else {
    std::vector<std::thread> team;
    team.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) team.emplace_back(worker, t);
    for (auto& thread : team) thread.join();
  }
  const std::int64_t t1 = util::wall_now_us();
  (void)sink.load();
  const double secs = static_cast<double>(t1 - t0) / 1e6;
  return secs > 0.0 ? static_cast<double>(per_thread * threads) / secs : 0.0;
}

/// Route/e2e latency percentiles from a telemetry registry into the JSON
/// metrics block as `<prefix>{route,e2e}_p{50,95,99}_s`.
void latency_metrics(benchtools::BenchJson& out, const std::string& prefix,
                     const obs::MetricsRegistry& registry) {
  const auto add = [&](const char* key, const char* histogram) {
    const auto it = registry.histograms().find(histogram);
    if (it == registry.histograms().end()) return;
    out.metric(prefix + std::string(key) + "_p50_s", it->second.p50());
    out.metric(prefix + std::string(key) + "_p95_s", it->second.p95());
    out.metric(prefix + std::string(key) + "_p99_s", it->second.p99());
  };
  add("route", "serve.route_latency_s");
  add("e2e", "serve.e2e_latency_s");
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = benchtools::BenchOptions::parse(argc, argv);
  const benchtools::Suite suite;

  // Workload scales with --reps (default 7 -> 280k decisions per policy).
  const std::size_t decisions = 40000 * options.reps;
  const std::size_t requests = 2000 * options.reps;
  util::Rng trace_rng(1000);
  const sim::Trace trace =
      fstartbench::make_overall_workload(suite.bench, 4096, trace_rng);

  const std::size_t hardware =
      std::max(1U, std::thread::hardware_concurrency());
  const std::size_t threads = std::min<std::size_t>(4, hardware);

  constexpr std::size_t kProducers = 2;
  serve::ServeConfig serve_cfg;
  // Workers and producers together fit in `threads` where they can.
  serve_cfg.workers = threads > kProducers ? threads - kProducers : 1;
  serve_cfg.shards = 8;  // dispatch stripes
  serve_cfg.queue_capacity = 8192;
  serve_cfg.batch = 32;

  double headline_per_sec = 0.0;
  std::vector<std::pair<std::string, double>> policy_rates;
  double svc_per_sec = 0.0;
  serve::ServeSummary summary;
  obs::MetricsRegistry live_metrics;

  if (!options.replay_only) {
    fleet::FleetEnv fleet = make_fleet(suite);
    prewarm(fleet, trace);

    // --- Phase 1: every standard policy, route only --------------------
    std::cout << "=== serve route-only throughput: " << kNodes << " nodes, "
              << threads << " threads, " << decisions
              << " decisions per policy ===\n";
    serve::ShardedFleetIndex plain(kNodes, /*track_warm=*/false);
    serve::ShardedFleetIndex warm(kNodes, /*track_warm=*/true);
    seed_index(plain, fleet);
    seed_index(warm, fleet);
    {  // warm-up pass so first-touch noise lands outside the timed runs
      serve::LeastOutstandingPolicy lo;
      lo.on_episode_start(kNodes);
      (void)measure_route(lo, plain, suite.bench.functions, trace, 1,
                          decisions / 4);
    }
    util::Table per_policy({"policy", "decisions/sec"});
    for (const serve::PolicySpec& spec : serve::standard_policies()) {
      const std::unique_ptr<serve::RoutePolicy> policy = spec.make();
      policy->on_episode_start(kNodes);
      const auto& index = policy->needs_warm_index() ? warm : plain;
      const double per_sec = measure_route(*policy, index,
                                           suite.bench.functions, trace,
                                           threads, decisions);
      policy_rates.emplace_back(spec.name, per_sec);
      per_policy.add_row({spec.name, util::Table::num(per_sec, 0)});
      if (spec.name == "Least-Outstanding") headline_per_sec = per_sec;
    }
    per_policy.print(std::cout);

    // --- Phase 2: full ingest -> route -> dispatch path ---------------
    fleet::FleetEnv service_fleet = make_fleet(suite);
    serve::WallClock clock;
    serve::TelemetryConfig live_tcfg;  // metrics-only: no tracer, no snapshots
    live_tcfg.registry_slots = serve_cfg.workers + kProducers;
    serve::Telemetry live_telemetry(live_tcfg);
    serve::SchedulerService service(
        service_fleet, clock,
        std::make_unique<serve::LeastOutstandingPolicy>(), serve_cfg);
    service.set_telemetry(&live_telemetry);
    service.begin_episode();
    service.start();

    const std::int64_t svc_t0 = util::wall_now_us();
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        const auto& invs = trace.invocations();
        for (std::size_t i = 0; i < requests / kProducers; ++i) {
          sim::Invocation inv = invs[(p * 131 + i) % invs.size()];
          inv.seq = p * (requests / kProducers) + i;
          inv.arrival_s = clock.now_s();
          inv.exec_s = 0.005;
          while (!service.submit(inv)) std::this_thread::yield();
        }
      });
    }
    for (auto& producer : producers) producer.join();
    summary = service.finish_episode();
    const std::int64_t svc_t1 = util::wall_now_us();
    const double svc_secs = static_cast<double>(svc_t1 - svc_t0) / 1e6;
    svc_per_sec =
        svc_secs > 0.0 ? static_cast<double>(summary.stats.routed) / svc_secs
                       : 0.0;
    live_metrics = live_telemetry.metrics();
    const obs::SloReport live_slo = live_telemetry.slo_report();

    std::cout << "\n=== full service path: " << requests << " requests, "
              << serve_cfg.workers << " workers, " << kProducers
              << " producers ===\n";
    if (serve_cfg.workers + kProducers > hardware)
      std::cout << "(" << serve_cfg.workers + kProducers
                << " threads oversubscribe " << hardware
                << " hardware threads)\n";
    std::cout
              << "served " << summary.stats.routed << " ("
              << util::Table::num(svc_per_sec, 0) << " req/s), rejected "
              << summary.stats.rejected << ", lost " << summary.stats.lost
              << ", cold starts " << summary.fleet.total.cold_starts << "\n"
              << "telemetry: e2e p99 "
              << util::Table::num(1000.0 * live_slo.e2e_p99_s, 2)
              << " ms, goodput " << util::Table::num(live_slo.goodput, 3)
              << ", max queue depth "
              << util::Table::num(live_slo.queue_depth_max, 0) << "\n";

    std::cout << "\nheadline: " << util::Table::num(headline_per_sec, 0)
              << " Least-Outstanding decisions/sec at " << threads
              << " threads\n";
  }

  // --- Phase 3: deterministic replay with the full telemetry plane ----
  obs::Tracer tracer;
  if (!options.trace_path.empty())
    tracer.add_sink(std::make_shared<obs::ChromeTraceSink>(options.trace_path));
  fleet::FleetEnv replay_fleet = make_fleet(suite);
  serve::SimClock sim_clock;
  serve::TelemetryConfig replay_tcfg;
  replay_tcfg.snapshot_path = options.snapshots_path;
  replay_tcfg.snapshot_period_s = 10.0;
  replay_tcfg.registry_slots = serve_cfg.workers;
  serve::Telemetry replay_telemetry(replay_tcfg, &tracer);
  serve::SchedulerService replay_service(
      replay_fleet, sim_clock,
      std::make_unique<serve::LeastOutstandingPolicy>(), serve_cfg);
  replay_service.set_telemetry(&replay_telemetry);

  const std::int64_t rp_t0 = util::wall_now_us();
  const serve::ServeSummary replayed = replay_service.run_replay(trace);
  const std::int64_t rp_t1 = util::wall_now_us();
  tracer.close();
  if (!options.metrics_path.empty())
    replay_telemetry.metrics().write_csv(options.metrics_path);

  const double rp_secs = static_cast<double>(rp_t1 - rp_t0) / 1e6;
  const double rp_per_sec =
      rp_secs > 0.0 ? static_cast<double>(replayed.stats.routed) / rp_secs
                    : 0.0;
  const obs::MetricsRegistry replay_metrics = replay_telemetry.metrics();

  std::cout << "\n=== deterministic replay (SimClock): " << trace.size()
            << " invocations ===\n"
            << "replayed " << replayed.stats.routed << " ("
            << util::Table::num(rp_per_sec, 0) << " req/s wall), lost "
            << replayed.stats.lost << ", cold starts "
            << replayed.fleet.total.cold_starts << ", snapshots "
            << replay_telemetry.snapshot_count() << "\n";

  if (!options.json_path.empty()) {
    benchtools::BenchJson out("serve_throughput");
    out.config("nodes", kNodes);
    out.config("threads", threads);
    out.config("shards", serve_cfg.shards);
    out.config("route_decisions", decisions);
    out.config("service_requests", requests);
    out.config("policy", std::string("Least-Outstanding"));
    out.config("replay_only",
               static_cast<std::size_t>(options.replay_only ? 1 : 0));
    if (options.replay_only) {
      out.wall_ms(1000.0 * rp_secs);
      out.events_per_sec(rp_per_sec);
    } else {
      out.wall_ms(1000.0 * static_cast<double>(decisions) /
                  (headline_per_sec > 0.0 ? headline_per_sec : 1.0));
      out.events_per_sec(headline_per_sec);
      for (const auto& [name, per_sec] : policy_rates) {
        std::string key = "route_" + name + "_per_sec";
        for (char& c : key) {
          if (c == '-') c = '_';
          c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
        out.metric(key, per_sec);
      }
      out.metric("service_requests_per_sec", svc_per_sec);
      out.metric("service_rejected",
                 static_cast<double>(summary.stats.rejected));
      out.metric("service_lost", static_cast<double>(summary.stats.lost));
      latency_metrics(out, "service_", live_metrics);
    }
    out.metric("replay_requests_per_sec", rp_per_sec);
    out.metric("replay_lost", static_cast<double>(replayed.stats.lost));
    latency_metrics(out, "replay_", replay_metrics);
    if (!out.write(options.json_path)) return 1;
    std::cout << "wrote " << options.json_path << "\n";
  }
  return 0;
}
