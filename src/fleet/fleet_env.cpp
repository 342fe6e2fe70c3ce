#include "fleet/fleet_env.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "faults/injector.hpp"
#include "fleet/event_core.hpp"
#include "fleet/router.hpp"
#include "obs/tracer.hpp"
#include "util/audit.hpp"
#include "util/check.hpp"

namespace mlcr::fleet {

namespace {

/// Invariant auditor for a completed fleet episode: every node's summary
/// agrees with its metrics collector, and the per-node invocation counts sum
/// to the global trace — no invocation lost or duplicated by routing.
[[maybe_unused]] void audit_fleet_run(
    const sim::Trace& trace,
    const std::vector<NodeObservation>& observations, std::size_t lost) {
  std::size_t routed = 0;
  for (const NodeObservation& obs : observations) {
    MLCR_CHECK(obs.metrics != nullptr);
    obs.metrics->audit();
    MLCR_CHECK_MSG(obs.summary.invocations == obs.metrics->invocation_count(),
                   "node summary and metrics disagree on invocation count");
    routed += obs.summary.invocations;
  }
  MLCR_CHECK_MSG(routed + lost == trace.size(),
                 "fleet routed " << routed << " and lost " << lost
                                 << " invocations of a trace of "
                                 << trace.size());
}

}  // namespace

NodeSystemFactory uniform_system(std::function<policies::SystemSpec()> make) {
  MLCR_CHECK(make != nullptr);
  return [make = std::move(make)](std::size_t node, util::Rng rng) {
    (void)node;
    (void)rng;
    return make();
  };
}

FleetEnv::FleetEnv(const sim::FunctionTable& functions,
                   const containers::PackageCatalog& catalog,
                   const sim::StartupCostModel& cost_model, FleetConfig config,
                   const NodeSystemFactory& make_system)
    : functions_(functions), catalog_(catalog), config_(config) {
  MLCR_CHECK_MSG(config_.nodes > 0, "a fleet needs at least one node");
  MLCR_CHECK(make_system != nullptr);
  const std::size_t total = config_.nodes + config_.spare_nodes;
  config_.faults.validate(total);
  routable_count_ = config_.nodes;
  util::Rng master(config_.seed);
  nodes_.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    Node node;
    node.spec = make_system(i, master.split());
    MLCR_CHECK(node.spec.scheduler != nullptr);
    MLCR_CHECK(node.spec.eviction_factory != nullptr);
    sim::EnvConfig env_cfg = config_.node_env;
    env_cfg.keep_alive_ttl_s = node.spec.keep_alive_ttl_s;
    env_cfg.reuse_semantics = node.spec.reuse_semantics;
    node.env = std::make_unique<sim::ClusterEnv>(
        functions_, catalog_, cost_model, env_cfg, node.spec.eviction_factory);
    nodes_.push_back(std::move(node));
  }
  system_name_ = nodes_.front().spec.name;
  // One extra split after the node streams: adding faults to a config must
  // not shift the streams the node factories already consumed.
  fault_root_ = master.split();
  rebuild_fault_events();
}

void FleetEnv::rebuild_fault_events() {
  fault_events_.clear();
  for (const faults::CrashWindow& w : config_.faults.crashes) {
    fault_events_.push_back({w.down_at, false, w.node, w.partial, w.domain,
                             /*domain_lead=*/false});
    fault_events_.push_back({w.up_at, true, w.node, w.partial, w.domain,
                             /*domain_lead=*/false});
  }
  std::sort(fault_events_.begin(), fault_events_.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.is_recovery != b.is_recovery) return a.is_recovery;
              return a.node < b.node;
            });
  // The first crash of each (domain, down_at) group — the lowest member
  // node, given the sort — leads it: it counts and traces the domain-level
  // event exactly once however many members participated.
  std::set<std::pair<std::size_t, double>> led;
  for (FaultEvent& ev : fault_events_) {
    if (ev.is_recovery || ev.domain == faults::kNoDomain) continue;
    ev.domain_lead = led.insert({ev.domain, ev.time}).second;
  }
}

void FleetEnv::set_fault_plan(faults::FaultPlan faults) {
  faults.validate(nodes_.size());
  config_.faults = std::move(faults);
  rebuild_fault_events();
}

bool FleetEnv::node_up(std::size_t i) const {
  MLCR_CHECK(i < nodes_.size());
  return !nodes_[i].env->down();
}

util::Rng FleetEnv::node_fault_stream(std::uint64_t seed, std::size_t nodes,
                                      std::size_t node) {
  MLCR_CHECK(node < nodes);
  util::Rng master(seed);
  for (std::size_t i = 0; i < nodes; ++i) (void)master.split();
  util::Rng root = master.split();
  for (std::size_t i = 0; i < node; ++i) (void)root.split();
  return root.split();
}

void FleetEnv::validate_trace(const sim::Trace& trace) const {
  double last_arrival = 0.0;
  std::size_t index = 0;
  for (const sim::Invocation& inv : trace.invocations()) {
    MLCR_CHECK_MSG(inv.function < functions_.size(),
                   "trace invocation " << index << " (seq " << inv.seq
                                       << ") names unknown function "
                                       << inv.function << " of a table of "
                                       << functions_.size());
    MLCR_CHECK_MSG(
        inv.arrival_s >= last_arrival,
        "trace invocation " << index << " (seq " << inv.seq << ") arrives at "
                            << inv.arrival_s
                            << "s, before its predecessor at " << last_arrival
                            << "s — traces must be sorted by arrival");
    last_arrival = inv.arrival_s;
    ++index;
  }
}

const sim::ClusterEnv& FleetEnv::node(std::size_t i) const {
  MLCR_CHECK(i < nodes_.size());
  return *nodes_[i].env;
}

sim::ClusterEnv& FleetEnv::node_env(std::size_t i) {
  MLCR_CHECK(i < nodes_.size());
  return *nodes_[i].env;
}

policies::Scheduler& FleetEnv::node_scheduler(std::size_t i) {
  MLCR_CHECK(i < nodes_.size());
  return *nodes_[i].spec.scheduler;
}

void FleetEnv::set_tracer(obs::Tracer* tracer) noexcept {
  tracer_ = tracer;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    nodes_[i].env->set_tracer(tracer, static_cast<std::uint32_t>(i));
}

std::optional<std::size_t> FleetEnv::fire_fault_event(
    const FaultEvent& ev, bool clamp, std::size_t& domain_crashes,
    std::size_t& spares_activated, bool traced) {
  sim::ClusterEnv& env = *nodes_[ev.node].env;
  const double at = clamp ? std::max(ev.time, env.now()) : ev.time;
  if (ev.is_recovery) {
    if (!clamp || env.down()) env.recover(at);
    return std::nullopt;
  }
  env.crash(at, ev.partial);
  if (ev.domain_lead) {
    ++domain_crashes;
    if (traced)
      tracer_->instant(obs::Tracer::kSimPid,
                       static_cast<std::uint32_t>(ev.node), obs::to_micros(at),
                       "domain_crash", "fault",
                       {obs::narg("domain", static_cast<std::int64_t>(
                                                ev.domain)),
                        obs::narg("partial", std::int64_t{ev.partial ? 1 : 0})});
  }
  // Elastic scale-out (DESIGN.md §14): every crash event admits one cold
  // spare into the routable set while any remain.
  const std::optional<std::size_t> spare = activate_spare();
  if (spare) {
    ++spares_activated;
    if (traced)
      tracer_->instant(
          obs::Tracer::kSimPid, static_cast<std::uint32_t>(*spare),
          obs::to_micros(at), "spare_activated", "fleet",
          {obs::narg("node", static_cast<std::int64_t>(*spare)),
           obs::narg("after_crash_of", static_cast<std::int64_t>(ev.node))});
  }
  return spare;
}

std::vector<std::unique_ptr<faults::FaultInjector>>
FleetEnv::make_injectors() {
  // Fault machinery only exists on a faulted plan; a faultless config takes
  // the exact pre-fault code path (bit-identity asserted in tests/faults).
  std::vector<std::unique_ptr<faults::FaultInjector>> injectors;
  if (config_.faults.faultless()) return injectors;
  // Copy fault_root_ so every run() of this fleet injects the same faults.
  util::Rng root = fault_root_;
  injectors.reserve(nodes_.size());
  for (Node& node : nodes_) {
    injectors.push_back(
        std::make_unique<faults::FaultInjector>(config_.faults, root.split()));
    node.env->set_fault_injector(injectors.back().get());
  }
  return injectors;
}

void FleetEnv::dispatch(const sim::Invocation& inv, std::size_t target,
                        bool traced, const std::string& router_name) {
  Node& node = nodes_[target];
  if (traced) {
    const auto tid = static_cast<std::uint32_t>(target);
    tracer_->instant(
        obs::Tracer::kSimPid, tid, obs::to_micros(inv.arrival_s), "route",
        "fleet",
        {obs::sarg("router", router_name),
         obs::narg("node", static_cast<std::int64_t>(target)),
         obs::narg("seq", static_cast<std::int64_t>(inv.seq))});
  }
  node.env->offer(inv);
  const sim::Action action = node.spec.scheduler->decide(*node.env, inv);
  const sim::StepResult result = node.env->step(action);
  node.spec.scheduler->on_step_result(*node.env, result);
  if (traced)
    tracer_->counter(obs::Tracer::kSimPid, static_cast<std::uint32_t>(target),
                     obs::to_micros(inv.arrival_s), "node_outstanding",
                     static_cast<double>(node.env->busy_count()));
}

FleetSummary FleetEnv::run(const sim::Trace& trace, Router& router) {
  validate_trace(trace);
  const bool traced = tracer_ != nullptr && tracer_->enabled();
  std::string router_name;
  if (traced) {
    router_name = router.name();
    for (std::size_t i = 0; i < nodes_.size(); ++i)
      tracer_->thread_name(obs::Tracer::kSimPid,
                           static_cast<std::uint32_t>(i),
                           "node" + std::to_string(i));
  }
  for (Node& node : nodes_) {
    node.env->reset_streaming();
    node.spec.scheduler->on_episode_start(*node.env);
  }
  reset_routable();
  router.on_episode_start(*this);
  const auto injectors = make_injectors();

  index_ = std::make_unique<FleetIndex>(nodes_.size(),
                                        router.needs_warm_index());
  // Spares sit outside the routable set until a crash admits them; the
  // index's load minima must never surface them before that.
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    index_->set_routable(i, node_routable(i));

  // The event core (fleet/event_core.hpp) merges the nodes' self-scheduled
  // events with the pre-sorted fault list; at equal times faults fire
  // before node advances, so routing at an arrival sees the fleet's health
  // as of that instant (crash()'s internal drain makes same-time
  // completion-vs-crash races identical either way; see DESIGN.md §10).
  EventCore events(nodes_.size(), fault_events_);
  // Re-derive a node's index contribution and event-core entry after any
  // event that touches it.
  const auto touch = [&](std::size_t n) {
    index_->update(n, *nodes_[n].env);
    events.reschedule(n, nodes_[n].env->next_event_time());
  };
  for (std::size_t i = 0; i < nodes_.size(); ++i) touch(i);

  std::size_t lost = 0;
  std::size_t rerouted = 0;
  std::size_t domain_crashes = 0;
  std::size_t spares_activated = 0;

  for (const sim::Invocation& inv : trace.invocations()) {
    // Fire every event due at or before the arrival, earliest first, so
    // routing sees every completion, TTL expiry and fault up to "now".
    while (const auto ev = events.pop_due(inv.arrival_s)) {
      if (ev->fault != nullptr) {
        const auto spare = fire_fault_event(*ev->fault, /*clamp=*/false,
                                            domain_crashes, spares_activated,
                                            traced);
        touch(ev->node);
        if (spare) {
          index_->set_routable(*spare, true);
          touch(*spare);
        }
      } else {
        // Advance only to the event's own time, never to the arrival: a
        // later fault on the same node must not be jumped over, and
        // advance_to composes, so stopping early is state-identical.
        nodes_[ev->node].env->advance_to(ev->time);
        touch(ev->node);
      }
    }

    const std::size_t pick = router.route(*this, inv);
    MLCR_CHECK_MSG(pick < routable_count_, "router picked an invalid node");
    const Placement placed = fail_over(*index_, pick);
    if (placed.lost) {
      ++lost;
      if (traced)
        tracer_->instant(
            obs::Tracer::kSimPid, static_cast<std::uint32_t>(pick),
            obs::to_micros(inv.arrival_s), "invocation_lost", "fault",
            {obs::narg("seq", static_cast<std::int64_t>(inv.seq))});
      continue;
    }
    if (placed.rerouted) {
      ++rerouted;
      if (traced)
        tracer_->instant(
            obs::Tracer::kSimPid, static_cast<std::uint32_t>(placed.node),
            obs::to_micros(inv.arrival_s), "reroute", "fault",
            {obs::narg("node", static_cast<std::int64_t>(placed.node)),
             obs::narg("seq", static_cast<std::int64_t>(inv.seq))});
    }
    dispatch(inv, placed.node, traced, router_name);
    touch(placed.node);
  }
  index_.reset();

  // Any node still inside a crash window recovers after the last arrival so
  // finish_streaming() drains a healthy fleet; remaining events fire in
  // order to keep the injector counters complete.
  for (std::size_t f = events.next_fault(); f < fault_events_.size(); ++f)
    (void)fire_fault_event(fault_events_[f], /*clamp=*/true, domain_crashes,
                           spares_activated, traced);

  std::vector<NodeObservation> observations;
  observations.reserve(nodes_.size());
  for (Node& node : nodes_) {
    node.env->finish_streaming();
    observations.push_back(
        {policies::summarize_env(*node.env, node.spec.scheduler->name()),
         &node.env->metrics()});
  }
  MLCR_AUDIT_POINT(audit_fleet_run(trace, observations, lost));
  FleetSummary fs = aggregate_fleet(router.name(), system_name_, observations);
  fs.lost = lost;
  fs.rerouted = rerouted;
  fs.domain_crashes = domain_crashes;
  fs.spares_activated = spares_activated;
  if (!injectors.empty()) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const faults::FaultCounters& c = injectors[i]->counters();
      fs.node_crashes += c.crashes;
      fs.partial_crashes += c.partial_crashes;
      fs.node_recoveries += c.recoveries;
      nodes_[i].env->set_fault_injector(nullptr);  // injectors die with run()
    }
  }
  return fs;
}

const FleetIndex& FleetEnv::index() const {
  MLCR_CHECK_MSG(index_ != nullptr,
                 "FleetEnv::index() outside FleetEnv::run: routers that read "
                 "the index route only inside a run");
  return *index_;
}

}  // namespace mlcr::fleet
