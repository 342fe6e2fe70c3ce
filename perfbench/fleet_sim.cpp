// fleet-sim: FleetEnv::run, single-threaded, over an Azure-like population
// (5000 functions, ~120k invocations) on 16 Greedy-Match nodes with 4096 MB
// pools each and Warm-Aware routing. The population (images, per-function
// invocation counts, execution times) is drawn once from a fixed seed, so
// runs with different seeds measure the same system on the same functions;
// the seed draws every invocation's arrival time over the trace window. The
// simulator is deterministic, so every repeat must reproduce the same
// simulated outputs.

#include "fleet/fleet_env.hpp"
#include "fstartbench/azure_like.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kNodes = 16;
constexpr double kPoolMb = 4096.0;
constexpr std::size_t kFunctions = 5000;
constexpr std::uint64_t kPopulationSeed = 7;
/// Traced runs time a FleetIndex::update on every Nth step of a node.
constexpr std::size_t kProbeEvery = 16;
/// Input builds timed before every repeat (for setup_s).
constexpr std::size_t kBuildsPerRepeat = 2;
/// Timed repeats per second of --seconds: the count depends on the arguments
/// alone, so both sides of a comparison take their fastest over the same
/// number of repeats. About 2 s per repeat on a 4-vCPU Xeon VM.
constexpr double kRepeatsPerSecond = 0.3;

// Every repeat replays identical work, so the end-to-end times take the
// fastest repeat per invocation (latency) and the fastest whole run, on-CPU
// (throughput): a noisy neighbour slowing one repeat down does not move them.

struct World {
  fstartbench::AzureLikeWorkload workload;
  std::unique_ptr<sim::StartupCostModel> cost;
  sim::Trace trace;
  Hooks hooks;
  std::unique_ptr<fleet::FleetEnv> fleet;
};

std::unique_ptr<World> build_world(const Options& options) {
  auto w = std::make_unique<World>();
  fstartbench::AzureLikeConfig cfg;
  cfg.num_functions = kFunctions;
  w->workload =
      fstartbench::make_azure_like_workload(cfg, util::Rng(kPopulationSeed));
  w->cost = std::make_unique<sim::StartupCostModel>(w->workload.catalog);
  util::Rng rng(options.seed);
  std::vector<sim::Invocation> invs = w->workload.trace.invocations();
  for (sim::Invocation& inv : invs)
    inv.arrival_s = rng.uniform(0.0, cfg.window_s);
  w->trace = sim::Trace(std::move(invs));

  fleet::FleetConfig fleet_cfg;
  fleet_cfg.nodes = kNodes;
  fleet_cfg.node_env.pool_capacity_mb = kPoolMb;
  fleet_cfg.seed = 1;
  w->fleet = std::make_unique<fleet::FleetEnv>(
      w->workload.functions, w->workload.catalog, *w->cost, fleet_cfg,
      stamped_system(policies::make_greedy_match_system, w->hooks));
  return w;
}

struct Run {
  SimFingerprint sim;
  /// Per-invocation event-core time: from its route() entry to the next's.
  std::vector<std::int64_t> seg_ns;
  double wall_s = 0.0;
  /// On-CPU time of the run (FleetEnv::run is single-threaded).
  double cpu_s = 0.0;
  // Traced only.
  std::vector<double> route_us, decide_us, step_us;
  double route_s = 0.0, decide_s = 0.0, step_s = 0.0, probe_s = 0.0;
  std::vector<double> probe_ns;
  std::size_t unordered = 0;
};

Run run_trace(World& w, const sim::Trace& trace, bool traced, Outcome& out) {
  const std::size_t n = trace.size();
  RequestLog log(n, traced);
  w.hooks.log = &log;
  w.hooks.probe_every = traced ? kProbeEvery : 0;
  StampRouter router(std::make_unique<fleet::WarmAwareRouter>(), w.hooks);

  Run r;
  const std::int64_t c0 = thread_cpu_ns();
  const std::int64_t t0 = now_ns();
  const fleet::FleetSummary summary = w.fleet->run(trace, router);
  const std::int64_t t1 = now_ns();
  r.cpu_s = static_cast<double>(thread_cpu_ns() - c0) / 1e9;
  r.sim = SimFingerprint::of(summary);
  r.wall_s = static_cast<double>(t1 - t0) / 1e9;
  out.check(summary.lost == 0 && summary.total.invocations == n,
            "fleet-sim: not every invocation was served");

  std::size_t bad_stamps = 0;
  r.seg_ns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (log.done_count[i].load() != 1 || log.route_in[i] == 0) ++bad_stamps;
    const std::int64_t next = i + 1 < n ? log.route_in[i + 1] : t1;
    r.seg_ns.push_back(next - log.route_in[i]);
    if (!traced) continue;
    const bool ordered = log.route_in[i] <= log.route_out[i] &&
                         log.route_out[i] <= log.decide_in[i] &&
                         log.decide_in[i] <= log.decide_out[i] &&
                         log.decide_out[i] <= log.done[i] &&
                         log.done[i] <= next;
    if (!ordered) ++r.unordered;
    const std::int64_t route = log.route_out[i] - log.route_in[i];
    const std::int64_t decide = log.decide_out[i] - log.decide_in[i];
    const std::int64_t step = log.done[i] - log.decide_out[i];
    r.route_us.push_back(ns_to_us(route));
    r.decide_us.push_back(ns_to_us(decide));
    r.step_us.push_back(ns_to_us(step));
    r.route_s += static_cast<double>(route) / 1e9;
    r.decide_s += static_cast<double>(decide) / 1e9;
    r.step_s += static_cast<double>(step) / 1e9;
  }
  out.check(bad_stamps == 0, "fleet-sim: " + std::to_string(bad_stamps) +
                                 " invocations not routed and stamped once");
  if (traced) {
    r.probe_ns = take_probes(*w.fleet);
    for (const double ns : r.probe_ns) r.probe_s += ns / 1e9;
  }
  w.hooks.log = nullptr;
  return r;
}

std::vector<double> to_us(const std::vector<std::int64_t>& ns) {
  std::vector<double> us(ns.size());
  std::transform(ns.begin(), ns.end(), us.begin(), ns_to_us);
  return us;
}

/// Per-invocation event-core time (ns), the fastest over the runs folded in
/// so far. Runs are folded one by one and then dropped, so memory does not
/// grow with the number of repeats.
void fold_fastest(std::vector<std::int64_t>& best,
                  const std::vector<std::int64_t>& seg_ns) {
  if (best.empty()) {
    best = seg_ns;
    return;
  }
  for (std::size_t i = 0; i < best.size(); ++i)
    best[i] = std::min(best[i], seg_ns[i]);
}

}  // namespace

Outcome run_fleet_sim(const Options& options) {
  Outcome out;
  Setup<World> setup([&] { return build_world(options); });
  const std::size_t repeats = std::max<std::size_t>(
      2, static_cast<std::size_t>(options.seconds * kRepeatsPerSecond));
  std::vector<std::int64_t> best_ns;
  SimFingerprint sim;
  std::vector<double> walls;  ///< wall time of each untraced repeat, s
  std::vector<double> cpus;   ///< on-CPU time of each untraced repeat, s
  while (walls.size() < repeats) {
    World& w = setup.rebuild(kBuildsPerRepeat);
    const Run run = run_trace(w, w.trace, false, out);
    if (walls.empty()) sim = run.sim;
    out.check(run.sim == sim,
              "fleet-sim: simulated outputs differ between repeats");
    fold_fastest(best_ns, run.seg_ns);
    walls.push_back(run.wall_s);
    cpus.push_back(run.cpu_s);
  }
  World& w = setup.world();
  out.note("nodes", std::to_string(kNodes));
  out.note("threads", "1");
  out.note("functions", std::to_string(kFunctions));
  out.note("invocations", std::to_string(w.trace.size()));
  out.note("repeats", std::to_string(repeats));
  out.attempted = walls.size() * w.trace.size();

  if (!options.trace) {
    const std::vector<double> lat = to_us(best_ns);
    out.set("lat_p50_us", quantile(lat, 0.5));
    out.set("lat_p90_us", quantile(lat, 0.9));
    out.set("throughput_rps", static_cast<double>(w.trace.size()) /
                                  *std::min_element(cpus.begin(), cpus.end()));
    set_sim_metrics(out, sim);
    out.set("setup_s", setup.median_s());
    out.set("peak_rss_mb", peak_rss_mb());
    return out;
  }

  const Run traced = run_trace(w, w.trace, true, out);
  out.attempted += w.trace.size();
  out.check(traced.sim == sim,
            "fleet-sim: traced and untraced simulated outputs differ");
  // The run's wall time is route + decide + step + probes + the rest of the
  // event core; a negative rest means the spans overlap.
  const double other_s = traced.wall_s - traced.route_s - traced.decide_s -
                         traced.step_s - traced.probe_s;
  out.check(other_s >= 0.0, "fleet-sim: traced spans exceed the run's wall");
  out.check(traced.unordered == 0, "fleet-sim: invocation stamps out of order");
  const double n = static_cast<double>(traced.route_us.size());
  out.set("fleet.route_us.p50", quantile(traced.route_us, 0.5));
  out.set("policies.decide_us.p50", quantile(traced.decide_us, 0.5));
  out.set("sim.step_us.p50", quantile(traced.step_us, 0.5));
  out.set("fleet.index_update_us", median(traced.probe_ns) / 1e3);
  out.set("fleet.other_us_per_inv", other_s * 1e6 / n);
  out.set("lat_p99_us", quantile(to_us(traced.seg_ns), 0.99));
  out.set("recon.unordered", static_cast<double>(traced.unordered));
  // No serving front-end and no DQN run here.
  out.not_exercised(
      {"serve.queue_wait_us.p50", "serve.queue_wait_us.p90",
       "serve.route_us.p50", "serve.route_us.p90", "serve.batch_mean",
       "serve.route_calls_per_req", "serve.wave_width_mean", "serve.max_wave",
       "serve.pump_us_per_req", "core.encode_us", "rl.forward_us_per_state.w1",
       "rl.forward_us_per_state.wave", "rl.nonfinite_q"});
  set_sim_metrics(out, traced.sim);
  const double base = median(walls);
  out.set("trace_overhead_frac", (traced.wall_s - base) / base);
  return out;
}

}  // namespace perfbench

