// serve-mlcr: the scheduler service, pump-driven on a SimClock, serving 8
// MLCR nodes that share one trained agent behind Round-Robin routing, so a
// batch of arrivals is decided in waves of 8 through one forward_batch each.
// Every pump carries 32 arrivals (four waves); each request of a pump is due
// when the pump starts and is answered when it returns. Deterministic and
// single-threaded: the simulated outputs of every repeat must be identical,
// and equal to the same pumps served with every node deciding one state at a
// time.
#include <cmath>
#include <cstring>

#include "fleet/fleet_env.hpp"
#include "fstartbench/workloads.hpp"
#include "harness.hpp"
#include "model.hpp"
#include "serve/clock.hpp"
#include "serve/service.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kNodes = 8;
constexpr std::size_t kShards = 8;
constexpr std::size_t kBatch = 32;
/// Ten draws of the 400-invocation overall workload, served in pumps of
/// kBatch arrivals. The draws come from a fixed seed, so runs with different
/// seeds serve the same function mix; the seed places the arrivals.
constexpr std::size_t kRequests = 4000;
constexpr std::uint64_t kPopulationSeed = 11;
/// Timed repeats per second of --seconds: the count depends on the arguments
/// alone, so both sides of a comparison take their fastest pump over the same
/// number of repeats. About 1.1 s per repeat on a 4-vCPU Xeon VM. The host's
/// speed drifts over seconds to minutes; many repeats give every pump a
/// fast moment to be timed in.
constexpr double kRepeatsPerSecond = 0.6;
/// Input builds timed before every repeat (for setup_s).
constexpr std::size_t kBuildsPerRepeat = 3;

struct World {
  fstartbench::Benchmark bench = fstartbench::make_benchmark();
  sim::StartupCostModel cost{bench.catalog, fstartbench::default_cost_config()};
  double pool_mb = 0.0;
  sim::Trace trace;
  std::shared_ptr<rl::DqnAgent> agent;
  core::StateEncoderConfig encoder = core::make_default_mlcr_config().encoder;
  std::unique_ptr<fleet::FleetEnv> fleet;
};

/// kNodes nodes sharing the Moderate pool, each running `make`'s system.
std::unique_ptr<fleet::FleetEnv> make_fleet(
    const World& w, const std::function<policies::SystemSpec()>& make) {
  fleet::FleetConfig cfg;
  cfg.nodes = kNodes;
  cfg.node_env.pool_capacity_mb = w.pool_mb / kNodes;
  cfg.seed = 1;
  return std::make_unique<fleet::FleetEnv>(
      w.bench.functions, w.bench.catalog, w.cost, cfg,
      [make](std::size_t, util::Rng) { return make(); });
}

std::unique_ptr<World> build_world(const Options& options) {
  auto w = std::make_unique<World>();
  util::Rng ref_rng(1000);
  w->pool_mb =
      fstartbench::paper_pool_sizes(
          fstartbench::estimate_loose_capacity_mb(
              w->bench, fstartbench::make_overall_workload(w->bench, 400,
                                                           ref_rng)))
          .moderate_mb;
  util::Rng population(kPopulationSeed);
  util::Rng arrivals(options.seed);
  w->trace = overall_segments(w->bench, kRequests, population, arrivals);
  w->agent = load_agent(options.model_path);

  w->fleet = make_fleet(*w, [agent = w->agent, enc = w->encoder] {
    return core::make_mlcr_system(agent, enc);
  });

  // Warm-up: the agent over the workload's first wave of states, on one node.
  const auto& invs = w->trace.invocations();
  const sim::Trace head(std::vector<sim::Invocation>(
      invs.begin(), invs.begin() + static_cast<std::ptrdiff_t>(kNodes)));
  (void)scan_q_values(*w->agent, w->bench, w->cost, w->pool_mb, head);
  return w;
}

/// What the served-state checks found, and (traced) the layer timings.
struct Probes {
  std::vector<double> encode_ns;
  std::vector<double> w1_ns_per_state;
  std::vector<double> wave_ns_per_state;
  std::vector<double> index_ns;
  std::size_t states = 0;
  std::size_t nonfinite = 0;   ///< states with any non-finite Q-value
  std::size_t mismatched = 0;  ///< batched Q or action != the single-state one
};

bool same_bits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(*a.data())) == 0;
}

/// After a pump, on every node's state for the next arrival: check the
/// batched path the service decides through (q_values_batch /
/// greedy_actions over the whole wave) against the single-state path, and
/// that every Q-value is finite; time encode, forward at width 1 and at the
/// wave's width, and a warm-tracking FleetIndex refresh from each node.
void probe(World& w, const sim::Invocation& next, Probes& p) {
  const core::StateEncoder encoder(w.encoder);
  std::vector<core::EncodedState> states;
  fleet::FleetIndex index(kNodes, true);
  for (std::size_t n = 0; n < kNodes; ++n) {
    const sim::ClusterEnv& env = w.fleet->node(n);
    std::int64_t t0 = now_ns();
    states.push_back(encoder.encode(env, next, next.arrival_s));
    p.encode_ns.push_back(static_cast<double>(now_ns() - t0));
    t0 = now_ns();
    index.update(n, env);
    p.index_ns.push_back(static_cast<double>(now_ns() - t0));
  }
  std::vector<const nn::Tensor*> tokens;
  std::vector<const rl::ActionMask*> masks;
  std::vector<std::size_t> single;
  for (const auto& s : states) {
    tokens.push_back(&s.tokens);
    masks.push_back(&s.mask);
    const std::int64_t t0 = now_ns();
    single.push_back(w.agent->greedy_actions({&s.tokens}, {&s.mask}).front());
    p.w1_ns_per_state.push_back(static_cast<double>(now_ns() - t0));
  }
  const std::int64_t t0 = now_ns();
  const std::vector<std::size_t> batched = w.agent->greedy_actions(tokens, masks);
  p.wave_ns_per_state.push_back(static_cast<double>(now_ns() - t0) /
                                static_cast<double>(states.size()));

  const std::vector<nn::Tensor> q = w.agent->q_values_batch(tokens);
  for (std::size_t i = 0; i < states.size(); ++i) {
    ++p.states;
    bool finite = true;
    for (std::size_t k = 0; k < q[i].size(); ++k)
      finite = finite && std::isfinite(q[i].data()[k]);
    if (!finite) ++p.nonfinite;
    const auto best = rl::masked_argmax(q[i], states[i].mask);
    if (batched[i] != single[i] || !best || *best != batched[i] ||
        !same_bits(q[i], w.agent->q_values(states[i].tokens)))
      ++p.mismatched;
  }
}

struct Episode {
  SimFingerprint sim;
  serve::ServeStats stats;
  /// Per pump: on-CPU time and requests served.
  std::vector<std::int64_t> pump_ns;
  std::vector<std::size_t> pump_served;
  std::size_t route_calls = 0;

  [[nodiscard]] std::int64_t total_ns() const {
    std::int64_t t = 0;
    for (const std::int64_t ns : pump_ns) t += ns;
    return t;
  }
};

/// Round-Robin that remembers where each request was last routed: a wave
/// that closes on a repeated target routes that request again, so its last
/// route is the node that served it.
class RecordingPolicy final : public serve::RoutePolicy {
 public:
  explicit RecordingPolicy(std::vector<std::size_t>& targets)
      : targets_(targets) {}

  void on_episode_start(std::size_t node_count) override {
    inner_.on_episode_start(node_count);
  }
  [[nodiscard]] std::size_t route(const serve::ShardedFleetIndex& index,
                                  const sim::FunctionTable& functions,
                                  const sim::Invocation& inv) override {
    return targets_[inv.seq] = inner_.route(index, functions, inv);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  serve::RoundRobinPolicy inner_;
  std::vector<std::size_t>& targets_;
};

/// Sends every request to the node a RecordingPolicy saw it served on.
class ReplayPolicy final : public serve::RoutePolicy {
 public:
  explicit ReplayPolicy(const std::vector<std::size_t>& targets)
      : targets_(targets) {}

  [[nodiscard]] std::size_t route(const serve::ShardedFleetIndex&,
                                  const sim::FunctionTable&,
                                  const sim::Invocation& inv) override {
    return targets_[inv.seq];
  }
  [[nodiscard]] std::string name() const override { return "Replay"; }

 private:
  const std::vector<std::size_t>& targets_;
};

/// One episode of the trace through the service over `fleet`, routed by
/// `policy`. `log` (traced) stamps every request; `probes` runs the
/// served-state checks after every pump.
Episode run_episode(World& w, fleet::FleetEnv& fleet,
                    std::unique_ptr<serve::RoutePolicy> policy,
                    RequestLog* log, Probes* probes, Outcome& out) {
  Hooks hooks;
  hooks.log = log;
  StampPolicy* stamp = nullptr;
  if (log != nullptr) {
    auto wrapped = std::make_unique<StampPolicy>(std::move(policy), hooks);
    stamp = wrapped.get();
    policy = std::move(wrapped);
  }
  serve::ServeConfig cfg;
  cfg.workers = 1;  // pump-driven: one queue, drained on this thread
  cfg.shards = kShards;
  cfg.batch = kBatch;
  cfg.queue_capacity = kBatch;
  serve::SimClock clock;
  serve::SchedulerService service(fleet, clock, std::move(policy), cfg);

  Episode ep;
  service.begin_episode();
  out.check(service.mlcr_mode() == (&fleet == w.fleet.get()),
            "serve-mlcr: service is not in the expected dispatch mode");
  const auto& invs = w.trace.invocations();
  for (std::size_t i = 0; i < invs.size();) {
    const std::size_t end = std::min(invs.size(), i + kBatch);
    clock.advance_to(invs[end - 1].arrival_s);
    for (std::size_t k = i; k < end; ++k) {
      if (log != nullptr) log->submit_in[k] = now_ns();
      const bool accepted = service.submit(invs[k]);
      if (log != nullptr) log->submit_out[k] = now_ns();
      out.check(accepted, "serve-mlcr: a submit was rejected");
    }
    // The pump runs on this thread, so its on-CPU time is its service time.
    const std::int64_t t0 = thread_cpu_ns();
    const std::size_t served = service.pump_once();
    const std::int64_t t1 = thread_cpu_ns();
    out.check(served == end - i, "serve-mlcr: a pump served a partial batch");
    ep.pump_ns.push_back(t1 - t0);
    ep.pump_served.push_back(served);
    if (probes != nullptr && end < invs.size()) probe(w, invs[end], *probes);
    i = end;
  }
  const serve::ServeSummary summary = service.finish_episode();
  ep.sim = SimFingerprint::of(summary.fleet);
  ep.stats = summary.stats;
  if (stamp != nullptr) ep.route_calls = stamp->calls();
  const auto& s = summary.stats;
  out.check(s.submitted == s.routed + s.rejected + s.lost,
            "serve-mlcr: submitted != routed + rejected + lost");
  out.check(s.routed == invs.size() && s.lost == 0 && s.rejected == 0,
            "serve-mlcr: not every request was served");
  return ep;
}

/// Each pump's time (ns) in its fastest repeat (every repeat serves
/// identical pumps).
std::vector<std::int64_t> fastest_pumps(const std::vector<const Episode*>& eps) {
  std::vector<std::int64_t> best = eps.front()->pump_ns;
  for (const Episode* ep : eps)
    for (std::size_t k = 0; k < best.size(); ++k)
      best[k] = std::min(best[k], ep->pump_ns[k]);
  return best;
}

/// Request latencies (us), each pump timed by its fastest repeat, weighted
/// by the requests it served.
std::vector<double> fastest_pump_latencies(
    const std::vector<const Episode*>& eps) {
  std::vector<double> lat;
  const std::vector<std::int64_t> best = fastest_pumps(eps);
  for (std::size_t k = 0; k < best.size(); ++k)
    lat.insert(lat.end(), eps.front()->pump_served[k], ns_to_us(best[k]));
  return lat;
}

}  // namespace

Outcome run_serve_mlcr(const Options& options) {
  Outcome out;
  // Every repeat runs on freshly built inputs (timed for setup_s); at least
  // two repeats, so the determinism check always has a pair.
  Setup<World> setup([&] { return build_world(options); });
  const std::size_t repeats = std::max<std::size_t>(
      2, static_cast<std::size_t>(options.seconds * kRepeatsPerSecond));
  std::vector<Episode> eps;
  while (eps.size() < repeats) {
    World& w = setup.rebuild(kBuildsPerRepeat);
    eps.push_back(run_episode(w, *w.fleet,
                              std::make_unique<serve::RoundRobinPolicy>(),
                              nullptr, nullptr, out));
  }
  World& w = setup.world();
  out.note("nodes", std::to_string(kNodes));
  out.note("threads", "1 (pump-driven)");
  out.note("requests_per_episode", std::to_string(w.trace.size()));
  out.note("repeats", std::to_string(repeats));

  for (const Episode& ep : eps)
    out.check(ep.sim == eps.front().sim,
              "serve-mlcr: simulated outputs differ between repeats");
  out.attempted = eps.size() * w.trace.size();

  // Check (untraced) or traced episode: served-state checks after every
  // pump, request stamps when traced, and each request's serving node.
  std::unique_ptr<RequestLog> log;
  if (options.trace) log = std::make_unique<RequestLog>(w.trace.size(), true);
  Probes probes;
  std::vector<std::size_t> targets(w.trace.size(), 0);
  const Episode checked =
      run_episode(w, *w.fleet, std::make_unique<RecordingPolicy>(targets),
                  log.get(), &probes, out);
  out.attempted += w.trace.size();
  out.check(checked.sim == eps.front().sim,
            "serve-mlcr: checked and timed simulated outputs differ");
  out.check(probes.nonfinite == 0,
            "serve-mlcr: non-finite Q-values on " +
                std::to_string(probes.nonfinite) + " of " +
                std::to_string(probes.states) + " served states");
  out.check(probes.mismatched == 0,
            "serve-mlcr: batched and single-state Q-values or actions differ "
            "on " + std::to_string(probes.mismatched) + " of " +
                std::to_string(probes.states) + " served states");

  // Reference: the same pumps, each request sent to the node that served it
  // above, with every node deciding one state at a time. A pass-through
  // StampScheduler hides the MLCR schedulers from the service, which then
  // calls decide() per request instead of batching a wave through
  // forward_batch; the batched episodes must reproduce it exactly.
  RequestLog ref_log(w.trace.size(), false);
  Hooks ref_hooks;
  ref_hooks.log = &ref_log;
  const auto sequential = make_fleet(w, [&] {
    policies::SystemSpec spec = core::make_mlcr_system(w.agent, w.encoder);
    spec.scheduler =
        std::make_unique<StampScheduler>(std::move(spec.scheduler), ref_hooks);
    return spec;
  });
  const Episode reference =
      run_episode(w, *sequential, std::make_unique<ReplayPolicy>(targets),
                  nullptr, nullptr, out);
  out.attempted += w.trace.size();
  std::size_t stamped_once = 0;
  for (std::size_t i = 0; i < ref_log.size(); ++i)
    stamped_once += ref_log.done_count[i].load() == 1 ? 1 : 0;
  out.check(stamped_once == w.trace.size(),
            "serve-mlcr: a request was not dispatched exactly once");
  out.check(reference.sim == eps.front().sim,
            "serve-mlcr: batched waves and single-state decisions differ");

  if (!options.trace) {
    std::vector<const Episode*> all;
    for (const Episode& ep : eps) all.push_back(&ep);
    const std::vector<double> lat = fastest_pump_latencies(all);
    out.set("lat_p50_us", quantile(lat, 0.5));
    out.set("lat_p90_us", quantile(lat, 0.9));
    // From the same per-pump fastest times as the latencies. The fastest
    // whole repeat follows the host's slow spells about twice as much.
    std::int64_t fastest = 0;
    for (const std::int64_t ns : fastest_pumps(all)) fastest += ns;
    out.set("throughput_rps", static_cast<double>(w.trace.size()) /
                                  (static_cast<double>(fastest) / 1e9));
    set_sim_metrics(out, eps.front().sim);
    out.set("setup_s", setup.median_s());
    out.set("peak_rss_mb", peak_rss_mb());
    return out;
  }

  std::vector<double> queue_us, route_us;
  std::size_t unordered = 0;
  for (std::size_t i = 0; i < log->size(); ++i) {
    const bool ordered = log->submit_in[i] > 0 &&
                         log->submit_in[i] <= log->submit_out[i] &&
                         log->submit_out[i] <= log->route_in[i] &&
                         log->route_in[i] <= log->route_out[i];
    if (!ordered) ++unordered;
    queue_us.push_back(ns_to_us(log->route_in[i] - log->submit_out[i]));
    route_us.push_back(ns_to_us(log->route_out[i] - log->route_in[i]));
  }
  out.check(unordered == 0, "serve-mlcr: request stamps out of order");
  const double routed = static_cast<double>(checked.stats.routed);
  out.set("serve.queue_wait_us.p50", quantile(queue_us, 0.5));
  out.set("serve.queue_wait_us.p90", quantile(queue_us, 0.9));
  out.set("serve.route_us.p50", quantile(route_us, 0.5));
  out.set("serve.route_us.p90", quantile(route_us, 0.9));
  out.set("lat_p99_us", quantile(fastest_pump_latencies({&checked}), 0.99));
  out.set("serve.batch_mean",
          routed / static_cast<double>(checked.stats.batches));
  out.set("serve.route_calls_per_req",
          static_cast<double>(checked.route_calls) / routed);
  out.set("serve.wave_width_mean",
          routed / static_cast<double>(checked.stats.inference_calls));
  out.set("serve.max_wave", static_cast<double>(checked.stats.max_wave));
  out.set("serve.pump_us_per_req", ns_to_us(checked.total_ns()) / routed);
  out.set("core.encode_us", median(probes.encode_ns) / 1e3);
  out.set("rl.forward_us_per_state.w1", median(probes.w1_ns_per_state) / 1e3);
  out.set("rl.forward_us_per_state.wave",
          median(probes.wave_ns_per_state) / 1e3);
  out.set("rl.nonfinite_q", static_cast<double>(probes.nonfinite));
  out.set("fleet.index_update_us", median(probes.index_ns) / 1e3);
  out.set("recon.unordered", static_cast<double>(unordered));
  // The batched MLCR path decides a whole wave inside the service, past the
  // node-scheduler seam, and no fleet::Router runs.
  out.not_exercised({"policies.decide_us.p50", "sim.step_us.p50",
                     "fleet.route_us.p50", "fleet.other_us_per_inv"});
  set_sim_metrics(out, checked.sim);
  std::vector<double> untraced_ns;
  for (const Episode& ep : eps)
    untraced_ns.push_back(static_cast<double>(ep.total_ns()));
  const double untraced = median(untraced_ns);
  out.set("trace_overhead_frac",
          (static_cast<double>(checked.total_ns()) - untraced) / untraced);
  return out;
}

}  // namespace perfbench
