// Chaos study (DESIGN.md §9): P99 startup latency and goodput of the five
// systems as the fault rate rises, at 1 and 8 nodes on the overall workload.
// The fault rate f maps to startup failures (P = f per risky start), repack
// failures (P = f/2 per volume swap) and — on multi-node fleets — sampled
// node-crash windows capped below the fleet size, so surviving capacity
// always exists and, with retries enabled, no invocation may be lost (the
// bench asserts this). Rate 0 runs the exact pre-fault code path, so the
// faultless rows double as a bit-identity baseline.
//
// The correlated-domain study (DESIGN.md §14) then scales the chaos to a
// rack-structured fleet: 12 primary nodes in 3 failure domains plus 2 cold
// spares, domain crash windows sampled with high correlation, per-function
// SLO deadlines derived from each function's cold-start ceiling, and the
// health-aware router measured against the health-blind failover baseline
// at equal capacity — on both the Greedy-Match and the MLCR (DQN) system.
// The bench asserts the health-aware variants drop strictly fewer
// invocations and records the study in BENCH_chaos_recovery.json (--json)
// for benchdiff.
//
// With --trace, two additional traced episodes run: the 2-node retry
// episode below, and a 6-node rack-failure episode with hand-placed domain
// windows, so the emitted Chrome trace is guaranteed to carry
// fault_injected / retry_attempt / node_crash / node_recover /
// pool_invalidate / domain_crash / spare_activated / reroute events for
// tracecheck (the chaos-smoke CI job). With --snapshots, a serving-plane
// replay of the correlated scenario writes flight-recorder snapshots so
// obsreport can gate goodput / loss rate / retry pressure.
#include <iostream>
#include <memory>
#include <utility>

#include "common.hpp"
#include "faults/fault_plan.hpp"
#include "fleet/fleet_env.hpp"
#include "fleet/router.hpp"
#include "serve/policy.hpp"
#include "serve/service.hpp"
#include "serve/telemetry.hpp"
#include "util/check.hpp"

namespace {

using namespace mlcr;

/// Fault plan for one swept cell. Crash windows are sampled only when the
/// fleet has nodes to spare: the concurrency cap of nodes/2 guarantees
/// surviving capacity, which is what lets the bench demand zero loss.
faults::FaultPlan make_plan(double rate, std::size_t nodes, double span_s,
                            util::Rng& rng) {
  faults::FaultPlan plan;
  plan.startup_failure_prob = rate;
  plan.repack_failure_prob = rate / 2.0;
  plan.retry.max_attempts = 3;
  if (rate > 0.0 && nodes > 1) {
    plan.crashes = faults::sample_domain_crash_windows(
        nodes, span_s, /*crashes_per_node=*/rate * 10.0,
        /*mean_downtime_s=*/span_s / 20.0,
        /*max_concurrent_down=*/nodes / 2, faults::DomainPlan{}, rng);
  }
  return plan;
}

/// Nearest-rank P99 startup latency over every node's served invocations
/// of the episode `fleet` last ran. The records stay in their nodes; the
/// percentile reads their union.
double fleet_latency_p99(const fleet::FleetEnv& fleet) {
  std::vector<double> latencies;
  for (std::size_t i = 0; i < fleet.node_count(); ++i) {
    const std::vector<double> node = fleet.node(i).metrics().latencies();
    latencies.insert(latencies.end(), node.begin(), node.end());
  }
  return obs::exact_rank_percentile(std::move(latencies), 99.0);
}

/// Fold one fleet episode into the session's registry, node by node.
void record_fleet_metrics(benchtools::ObsSession& session,
                          const std::string& system,
                          const fleet::FleetEnv& fleet) {
  for (std::size_t i = 0; i < fleet.node_count(); ++i)
    benchtools::record_episode_metrics(session, system,
                                       fleet.node(i).metrics());
}

// --- Correlated failure domains (DESIGN.md §14) -------------------------

constexpr std::size_t kStudyNodes = 12;   ///< primary routable nodes
constexpr std::size_t kStudySpares = 2;   ///< cold spares (elastic scale-out)
constexpr std::size_t kStudyDomains = 3;  ///< racks of 4 nodes each
constexpr double kStudyCorrelation = 0.9;
constexpr double kStudyCrashesPerDomain = 3.0;
constexpr double kStudyPartialFraction = 0.5;
/// Per-function SLO deadline = factor x (cold-start ceiling + mean exec).
constexpr double kSloFactor = 3.0;
/// Health-aware EWMA knobs: a slow filter (alpha 0.05) keeps a recovered
/// rack's failure estimate above the 0.3 steering threshold for ~20 routing
/// decisions — long enough to ride out the next correlated window instead
/// of replaying the load into it.
constexpr double kStudyEwmaAlpha = 0.05;
constexpr double kStudyEwmaThreshold = 0.3;

/// Rack layout + correlated-sampling knobs for the study: kStudyDomains
/// contiguous racks over the primary nodes, crashing together most of the
/// time (correlation 0.9) with a 40% chance the rack's pools survive.
faults::DomainPlan make_domain_layout(double span_s) {
  faults::DomainPlan dp;
  const std::size_t per_rack = kStudyNodes / kStudyDomains;
  for (std::size_t d = 0; d < kStudyDomains; ++d) {
    faults::FailureDomain rack;
    rack.id = d;
    for (std::size_t i = 0; i < per_rack; ++i)
      rack.nodes.push_back(d * per_rack + i);
    dp.domains.push_back(std::move(rack));
  }
  dp.correlation = kStudyCorrelation;
  dp.crashes_per_domain = kStudyCrashesPerDomain;
  dp.mean_downtime_s = span_s / 12.0;
  dp.partial_fraction = kStudyPartialFraction;
  return dp;
}

/// Fault plan for one correlated-study rep: sampled domain windows layered
/// over a sparse independent background, retries x3, and an SLO-derived
/// deadline per function — kSloFactor times its no-contention ceiling
/// (cold start + mean exec), so timeouts fire exactly when faults push an
/// invocation far past what a healthy node would have delivered.
faults::FaultPlan make_study_plan(const benchtools::Suite& suite,
                                  double span_s, util::Rng& rng) {
  faults::FaultPlan plan;
  plan.startup_failure_prob = 0.05;
  plan.repack_failure_prob = 0.025;
  plan.retry.max_attempts = 3;
  for (std::size_t f = 0; f < suite.bench.functions.size(); ++f) {
    const sim::FunctionType& fn = suite.bench.functions.get(f);
    plan.function_timeouts_s.push_back(
        {f,
         kSloFactor * (suite.cost.cold_start(fn).total() + fn.mean_exec_s)});
  }
  const faults::DomainPlan dp = make_domain_layout(span_s);
  plan.crashes = faults::sample_domain_crash_windows(
      kStudyNodes, span_s, /*crashes_per_node=*/0.25,
      /*mean_downtime_s=*/span_s / 20.0,
      /*max_concurrent_down=*/kStudyNodes / 2, dp, rng);
  plan.domains = dp.domains;
  return plan;
}

/// Rep-summed outcome of one (system, router) study cell. `dropped` is the
/// headline: invocations lost at routing plus invocations that died on a
/// node (crash-killed, retries exhausted, SLO timeout).
struct StudyCell {
  std::string name;
  double p99 = 0.0;      ///< mean over reps
  double goodput = 0.0;  ///< mean over reps
  std::size_t dropped = 0;
  std::size_t lost = 0;
  std::size_t failed = 0;
  std::size_t rerouted = 0;
  std::size_t domain_crashes = 0;
  std::size_t partial_crashes = 0;
  std::size_t spares_activated = 0;
  std::size_t invocations = 0;
};

/// Run one study cell: options.reps paired replications (every cell sees
/// the same traces, the same fleet seeds and the same sampled domain
/// windows — only the system/router under test differs).
StudyCell run_study_cell(const std::string& name,
                         const benchtools::SystemFactory& system,
                         const std::function<std::unique_ptr<fleet::Router>()>&
                             make_router,
                         const benchtools::Suite& suite,
                         const benchtools::TraceFactory& factory,
                         const benchtools::BenchOptions& options,
                         double cluster_mb, double span_s) {
  std::vector<util::Rng> rep_rngs;
  util::Rng root(9700);
  for (std::size_t r = 0; r < options.reps; ++r)
    rep_rngs.push_back(root.split());
  std::vector<fleet::FleetSummary> results(options.reps);
  std::vector<double> p99s(options.reps);
  const auto run_one = [&](std::size_t r) {
    util::Rng rng = rep_rngs[r];
    const sim::Trace trace = factory(rng);
    fleet::FleetConfig fleet_cfg;
    fleet_cfg.nodes = kStudyNodes;
    fleet_cfg.spare_nodes = kStudySpares;
    fleet_cfg.node_env.pool_capacity_mb =
        cluster_mb / static_cast<double>(kStudyNodes);
    fleet_cfg.seed = 500 + r;
    util::Rng window_rng = rng.split();
    fleet_cfg.faults = make_study_plan(suite, span_s, window_rng);
    fleet::FleetEnv env(suite.bench.functions, suite.bench.catalog,
                        suite.cost, fleet_cfg,
                        fleet::uniform_system(system));
    const std::unique_ptr<fleet::Router> router = make_router();
    results[r] = env.run(trace, *router);
    p99s[r] = fleet_latency_p99(env);
  };
  if (options.threads == 1) {
    for (std::size_t r = 0; r < options.reps; ++r) run_one(r);
  } else {
    util::ThreadPool pool(options.threads);
    pool.parallel_for(options.reps, run_one);
  }

  StudyCell cell;
  cell.name = name;
  util::RunningStats p99, goodput;
  for (std::size_t r = 0; r < options.reps; ++r) {
    const fleet::FleetSummary& fs = results[r];
    p99.add(p99s[r]);
    goodput.add(fs.goodput());
    cell.dropped += fs.lost + fs.total.failed;
    cell.lost += fs.lost;
    cell.failed += fs.total.failed;
    cell.rerouted += fs.rerouted;
    cell.domain_crashes += fs.domain_crashes;
    cell.partial_crashes += fs.partial_crashes;
    cell.spares_activated += fs.spares_activated;
    cell.invocations += fs.total.invocations;
  }
  cell.p99 = p99.mean();
  cell.goodput = goodput.mean();
  return cell;
}

/// One traced 6-node rack-failure episode: a whole 3-node domain goes down
/// together mid-episode (one member partially), admitting the single cold
/// spare. The bare Warm-Aware router keeps steering into the downed rack —
/// its surviving partial-crash pool stays the best Table-I match — so the
/// fleet's reroute path (and its trace instants) is guaranteed to fire.
void traced_domain_episode(benchtools::ObsSession& session,
                           const benchtools::Suite& suite,
                           const benchtools::TraceFactory& factory,
                           double node_mb) {
  util::Rng rng(5252);
  const sim::Trace trace = factory(rng);
  const double span = trace.span_s();
  faults::FaultPlan plan;
  plan.startup_failure_prob = 0.3;
  plan.retry.max_attempts = 3;
  faults::FailureDomain rack;
  rack.id = 0;
  rack.nodes = {0, 1, 2};
  plan.domains.push_back(rack);
  plan.crashes.push_back({0, span * 0.3, span * 0.55, false, 0});
  plan.crashes.push_back({1, span * 0.3, span * 0.5, false, 0});
  plan.crashes.push_back({2, span * 0.3, span * 0.45, true, 0});

  fleet::FleetConfig cfg;
  cfg.nodes = 6;
  cfg.spare_nodes = 1;
  cfg.seed = 5253;
  cfg.node_env.pool_capacity_mb = node_mb;
  cfg.faults = plan;
  fleet::FleetEnv env(suite.bench.functions, suite.bench.catalog, suite.cost,
                      cfg, fleet::uniform_system(
                               policies::make_greedy_match_system));
  env.set_tracer(&session.tracer);
  fleet::WarmAwareRouter router;  // bare: the env performs the failover
  const fleet::FleetSummary fs = env.run(trace, router);
  MLCR_CHECK_MSG(fs.domain_crashes == 1 && fs.node_crashes == 3,
                 "traced domain episode must crash the whole rack once");
  MLCR_CHECK_MSG(fs.partial_crashes == 1,
                 "traced domain episode must exercise a partial crash");
  MLCR_CHECK_MSG(fs.spares_activated == 1,
                 "traced domain episode must admit the cold spare");
  MLCR_CHECK_MSG(fs.rerouted > 0,
                 "traced domain episode must exercise the reroute path");
  record_fleet_metrics(session, "chaos:domain:Greedy-Match", env);
}

/// Serving-plane replay of the correlated scenario with the full telemetry
/// plane attached: the replay's pump fires the sampled domain windows in the
/// deterministic schedule and the flight recorder captures goodput, loss
/// rate and retry pressure per window — the snapshots obsreport gates in
/// the chaos-smoke CI job.
void serve_goodput_snapshots(const benchtools::Suite& suite,
                             const benchtools::TraceFactory& factory,
                             const benchtools::BenchOptions& options,
                             double cluster_mb, double span_s) {
  util::Rng rng(6363);
  const sim::Trace trace = factory(rng);
  util::Rng window_rng = rng.split();
  fleet::FleetConfig cfg;
  cfg.nodes = kStudyNodes;
  cfg.spare_nodes = kStudySpares;
  cfg.seed = 6364;
  cfg.node_env.pool_capacity_mb =
      cluster_mb / static_cast<double>(kStudyNodes);
  cfg.faults = make_study_plan(suite, span_s, window_rng);
  fleet::FleetEnv fleet(suite.bench.functions, suite.bench.catalog,
                        suite.cost, cfg,
                        fleet::uniform_system(
                            policies::make_greedy_match_system));

  serve::SimClock clock;
  serve::TelemetryConfig tcfg;
  tcfg.snapshot_path = options.snapshots_path;
  tcfg.snapshot_period_s = span_s / 50.0;
  tcfg.slo.window_s = span_s / 10.0;
  tcfg.registry_slots = 2;
  serve::Telemetry telemetry(tcfg);
  serve::ServeConfig scfg;
  scfg.workers = 1;
  scfg.shards = 4;
  serve::SchedulerService service(
      fleet, clock,
      std::make_unique<serve::RouterPolicy>(
          std::make_unique<fleet::WarmAwareRouter>()),
      scfg);
  service.set_telemetry(&telemetry);
  const serve::ServeSummary replayed = service.run_replay(trace);
  std::cout << "\nserve replay of the correlated scenario: routed "
            << replayed.stats.routed << ", lost " << replayed.stats.lost
            << ", rerouted " << replayed.stats.rerouted << ", node crashes "
            << replayed.fleet.node_crashes << ", snapshots "
            << telemetry.snapshot_count() << " -> "
            << options.snapshots_path << "\n";
}

/// One traced 2-node episode with hand-placed faults, so the Chrome trace
/// always contains every fault-path event kind tracecheck requires.
void traced_chaos_episode(benchtools::ObsSession& session,
                          const benchtools::Suite& suite,
                          const benchtools::TraceFactory& factory,
                          double node_mb) {
  util::Rng rng(4242);
  const sim::Trace trace = factory(rng);
  faults::FaultPlan plan;
  plan.startup_failure_prob = 0.5;  // cold starts abound: failures certain
  plan.repack_failure_prob = 0.25;
  plan.retry.max_attempts = 3;
  const double span = trace.span_s();
  plan.crashes.push_back({0, span * 0.3, span * 0.6});

  fleet::FleetConfig cfg;
  cfg.nodes = 2;
  cfg.seed = 4243;
  cfg.node_env.pool_capacity_mb = node_mb;
  cfg.faults = plan;
  fleet::FleetEnv env(suite.bench.functions, suite.bench.catalog, suite.cost,
                      cfg, fleet::uniform_system(
                               policies::make_greedy_match_system));
  env.set_tracer(&session.tracer);
  fleet::WarmAwareRouter router;
  const fleet::FleetSummary fs = env.run(trace, router);
  MLCR_CHECK_MSG(fs.node_crashes == 1 && fs.node_recoveries == 1,
                 "traced chaos episode must exercise the crash window");
  MLCR_CHECK_MSG(fs.total.retries > 0,
                 "traced chaos episode must exercise the retry path");
  record_fleet_metrics(session, "chaos:Greedy-Match", env);
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = benchtools::BenchOptions::parse_or_exit(argc, argv);
  const benchtools::Suite suite;
  benchtools::ObsSession obs_session(options);

  const benchtools::TraceFactory factory = [&](util::Rng& rng) {
    return fstartbench::make_overall_workload(suite.bench, 400, rng);
  };
  util::Rng ref_rng(1000);
  const sim::Trace reference = factory(ref_rng);
  const double loose =
      fstartbench::estimate_loose_capacity_mb(suite.bench, reference);
  const double cluster_mb = fstartbench::paper_pool_sizes(loose).moderate_mb;
  const double span_s = reference.span_s();

  // Trained on the Moderate pool only, so its cache is its own: the
  // figure benches train bench_overall on all three pool sizes.
  const core::MlcrConfig cfg = core::make_default_mlcr_config();
  const auto agent = benchtools::trained_agent(
      suite, "bench_chaos_recovery", factory, {cluster_mb}, cfg, options);
  const auto systems = benchtools::paper_systems(agent, &cfg.encoder);

  const std::vector<std::size_t> node_counts = {1, 8};
  const std::vector<double> fault_rates = {0.0, 0.05, 0.2};

  std::cout << "=== chaos recovery: Warm-Aware routing with failover, cluster "
            << "budget " << util::Table::num(cluster_mb, 0)
            << " MB, retries x3, " << options.reps << " reps ===\n";

  // P99 per (system, nodes, rate) for the closing MLCR-vs-baseline line.
  std::vector<std::vector<double>> p99_grid(systems.size());

  for (const std::size_t nodes : node_counts) {
    for (const double rate : fault_rates) {
      util::Table table({"system", "P99 (s)", "goodput", "failed", "retries",
                         "lost", "rerouted", "total latency (s)"});
      for (std::size_t si = 0; si < systems.size(); ++si) {
        const auto& system = systems[si];
        benchtools::BenchSpan sweep(
            obs_session, "chaos:" + system.name + ":" +
                             std::to_string(nodes) + "n");

        std::vector<util::Rng> rep_rngs;
        util::Rng root(9000);
        for (std::size_t r = 0; r < options.reps; ++r)
          rep_rngs.push_back(root.split());
        std::vector<fleet::FleetSummary> results(options.reps);
        std::vector<double> p99s(options.reps);
        const auto run_one = [&](std::size_t r) {
          util::Rng rng = rep_rngs[r];
          const sim::Trace trace = factory(rng);
          fleet::FleetConfig fleet_cfg;
          fleet_cfg.nodes = nodes;
          fleet_cfg.node_env.pool_capacity_mb =
              cluster_mb / static_cast<double>(nodes);
          fleet_cfg.seed = 100 + r;
          util::Rng window_rng = rng.split();
          fleet_cfg.faults = make_plan(rate, nodes, span_s, window_rng);
          fleet::FleetEnv env(suite.bench.functions, suite.bench.catalog,
                              suite.cost, fleet_cfg,
                              fleet::uniform_system(system.make));
          fleet::WarmAwareRouter router;
          results[r] = env.run(trace, router);
          p99s[r] = fleet_latency_p99(env);
        };
        if (options.threads == 1) {
          for (std::size_t r = 0; r < options.reps; ++r) run_one(r);
        } else {
          util::ThreadPool pool(options.threads);
          pool.parallel_for(options.reps, run_one);
        }

        util::RunningStats p99, goodput, failed, retries, lost, rerouted,
            latency;
        for (std::size_t r = 0; r < options.reps; ++r) {
          const fleet::FleetSummary& fs = results[r];
          // Crash windows never cover the whole fleet (cap = nodes/2) and
          // 1-node sweeps sample none, so with retries on, capacity always
          // remains and nothing may be dropped.
          MLCR_CHECK_MSG(fs.lost == 0,
                         "invocations lost despite surviving capacity");
          p99.add(p99s[r]);
          goodput.add(fs.goodput());
          failed.add(static_cast<double>(fs.total.failed));
          retries.add(static_cast<double>(fs.total.retries));
          lost.add(static_cast<double>(fs.lost));
          rerouted.add(static_cast<double>(fs.rerouted));
          latency.add(fs.total.total_latency_s);
        }
        p99_grid[si].push_back(p99.mean());
        table.add_row({system.name, util::Table::num(p99.mean(), 2),
                       util::Table::num(goodput.mean(), 4),
                       util::Table::num(failed.mean(), 1),
                       util::Table::num(retries.mean(), 1),
                       util::Table::num(lost.mean(), 1),
                       util::Table::num(rerouted.mean(), 1),
                       util::Table::num(latency.mean(), 1)});
      }
      std::cout << "\n--- " << nodes << " node(s), fault rate "
                << util::Table::num(rate, 2) << " ---\n";
      table.print(std::cout);
    }
  }

  // Closing comparison: the hardest cell (8 nodes, highest rate) is where
  // multi-level reuse has the most rebuilt state to protect.
  const std::size_t last_cell = node_counts.size() * fault_rates.size() - 1;
  std::cout << "\nat 8 nodes, fault rate "
            << util::Table::num(fault_rates.back(), 2) << ":\n";
  for (std::size_t si = 0; si < systems.size(); ++si)
    std::cout << "  " << systems[si].name << ": P99 "
              << util::Table::num(p99_grid[si][last_cell], 2) << " s\n";

  // --- Correlated failure domains (DESIGN.md §14) -----------------------
  std::cout << "\n=== correlated failure domains: " << kStudyNodes
            << " nodes in " << kStudyDomains << " racks + " << kStudySpares
            << " cold spares, correlation "
            << util::Table::num(kStudyCorrelation, 2) << ", SLO deadlines x"
            << util::Table::num(kSloFactor, 1) << " ===\n";

  const auto blind_router = [] {
    return std::unique_ptr<fleet::Router>(
        std::make_unique<fleet::WarmAwareRouter>());
  };
  const auto health_router = [] {
    return std::unique_ptr<fleet::Router>(
        std::make_unique<fleet::HealthAwareRouter>(
            std::make_unique<fleet::WarmAwareRouter>(), kStudyEwmaAlpha,
            kStudyEwmaThreshold));
  };
  const benchtools::SystemFactory greedy = [] {
    return policies::make_greedy_match_system();
  };

  const std::int64_t study_t0 = util::wall_now_us();
  const StudyCell blind = run_study_cell(
      "Greedy-Match + Failover (blind)", greedy, blind_router, suite, factory,
      options, cluster_mb, span_s);
  const StudyCell health = run_study_cell(
      "Greedy-Match + Health-Aware", greedy, health_router, suite, factory,
      options, cluster_mb, span_s);
  const StudyCell mlcr_blind = run_study_cell(
      "MLCR + Failover (blind)",
      benchtools::mlcr_system_factory(agent, cfg.encoder), blind_router,
      suite, factory, options, cluster_mb, span_s);
  const StudyCell mlcr_health = run_study_cell(
      "MLCR + Health-Aware",
      benchtools::mlcr_system_factory(agent, cfg.encoder), health_router,
      suite, factory, options, cluster_mb, span_s);
  const std::int64_t study_t1 = util::wall_now_us();

  util::Table study({"configuration", "P99 (s)", "goodput", "dropped", "lost",
                     "failed", "rerouted", "domain crashes", "spares"});
  for (const StudyCell* cell : {&blind, &health, &mlcr_blind, &mlcr_health})
    study.add_row({cell->name, util::Table::num(cell->p99, 2),
                   util::Table::num(cell->goodput, 4),
                   std::to_string(cell->dropped), std::to_string(cell->lost),
                   std::to_string(cell->failed),
                   std::to_string(cell->rerouted),
                   std::to_string(cell->domain_crashes),
                   std::to_string(cell->spares_activated)});
  study.print(std::cout);

  // The acceptance bar: at equal capacity, on paired traces and identical
  // sampled domain windows, health-aware recovery must lose strictly fewer
  // invocations than the health-blind baseline — on both systems. Blind
  // failover dumps load back onto a just-recovered rack the
  // moment it is up, exactly where a correlated plan's next window lands;
  // the EWMA keeps load off until the failure estimate decays.
  MLCR_CHECK_MSG(health.dropped < blind.dropped,
                 "health-aware routing must drop strictly fewer invocations "
                 "than blind failover ("
                     << health.dropped << " vs " << blind.dropped << ")");
  MLCR_CHECK_MSG(mlcr_health.dropped < mlcr_blind.dropped,
                 "health-aware MLCR must drop strictly fewer invocations "
                 "than its health-blind twin ("
                     << mlcr_health.dropped << " vs " << mlcr_blind.dropped
                     << ")");
  // The differential guard: an MLCR cell equal to its Greedy-Match twin on
  // every column says nothing about the agent, so it fails the run.
  const auto same_outcome = [](const StudyCell& a, const StudyCell& b) {
    return a.p99 == b.p99 && a.goodput == b.goodput &&
           a.dropped == b.dropped && a.lost == b.lost &&
           a.failed == b.failed && a.rerouted == b.rerouted;
  };
  for (const auto& [mlcr, twin] : {std::pair{&mlcr_blind, &blind},
                                   std::pair{&mlcr_health, &health}})
    MLCR_CHECK_MSG(!same_outcome(*mlcr, *twin),
                   "'" << mlcr->name << "' equals its Greedy-Match twin '"
                       << twin->name
                       << "' on P99, goodput, dropped, lost, failed and "
                          "rerouted: the differential shows nothing");
  std::cout << "\nhealth-aware recovery dropped " << health.dropped << " vs "
            << blind.dropped << " blind (Greedy-Match), "
            << mlcr_health.dropped << " vs " << mlcr_blind.dropped
            << " (MLCR)\n";

  if (!options.json_path.empty()) {
    benchtools::BenchJson out("chaos_recovery");
    out.config("reps", options.reps);
    out.config("nodes", kStudyNodes);
    out.config("spares", kStudySpares);
    out.config("domains", kStudyDomains);
    out.config("correlation", kStudyCorrelation);
    out.config("crashes_per_domain", kStudyCrashesPerDomain);
    out.config("partial_fraction", kStudyPartialFraction);
    out.config("slo_factor", kSloFactor);
    const auto cell_metrics = [&](const std::string& prefix,
                                  const StudyCell& cell) {
      out.metric(prefix + "_dropped", static_cast<double>(cell.dropped));
      out.metric(prefix + "_lost", static_cast<double>(cell.lost));
      out.metric(prefix + "_failed", static_cast<double>(cell.failed));
      out.metric(prefix + "_p99_s", cell.p99);
      out.metric(prefix + "_goodput", cell.goodput);
    };
    cell_metrics("blind", blind);
    cell_metrics("health", health);
    cell_metrics("mlcr_blind", mlcr_blind);
    cell_metrics("mlcr_health", mlcr_health);
    out.metric("domain_crashes", static_cast<double>(blind.domain_crashes));
    out.metric("partial_crashes", static_cast<double>(blind.partial_crashes));
    out.metric("spares_activated",
               static_cast<double>(blind.spares_activated));
    const double study_secs =
        static_cast<double>(study_t1 - study_t0) / 1e6;
    const std::size_t study_events = blind.invocations + health.invocations +
                                     mlcr_blind.invocations +
                                     mlcr_health.invocations;
    out.wall_ms(1000.0 * study_secs);
    out.events_per_sec(study_secs > 0.0
                           ? static_cast<double>(study_events) / study_secs
                           : 0.0);
    MLCR_CHECK_MSG(out.write(options.json_path),
                   "--json output must validate and write");
  }

  if (!options.snapshots_path.empty())
    serve_goodput_snapshots(suite, factory, options, cluster_mb, span_s);
  if (obs_session.tracing()) {
    traced_chaos_episode(obs_session, suite, factory, cluster_mb / 2.0);
    traced_domain_episode(obs_session, suite, factory, cluster_mb / 12.0);
  }
  obs_session.finish();
  if (!options.trace_path.empty())
    std::cout << "\ntrace written to " << options.trace_path << "\n";
  return 0;
}
