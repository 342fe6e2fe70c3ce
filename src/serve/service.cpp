#include "serve/service.hpp"

#include <algorithm>
#include <utility>

#include "core/mlcr.hpp"
#include "fleet/event_core.hpp"
#include "policies/runner.hpp"
#include "serve/telemetry.hpp"
#include "util/check.hpp"
#include "util/lock_audit.hpp"

namespace mlcr::serve {

SchedulerService::SchedulerService(fleet::FleetEnv& fleet, Clock& clock,
                                   std::unique_ptr<RoutePolicy> policy,
                                   ServeConfig config)
    : fleet_(fleet),
      clock_(clock),
      policy_(std::move(policy)),
      config_(config) {
  MLCR_CHECK(policy_ != nullptr);
  MLCR_CHECK_MSG(config_.workers > 0, "the service needs at least one worker");
  MLCR_CHECK_MSG(config_.shards > 0,
                 "the service needs at least one dispatch stripe");
  MLCR_CHECK_MSG(config_.batch > 0, "batch must drain at least one request");
  MLCR_CHECK_MSG(config_.queue_capacity > 0, "queues need room for one item");
  MLCR_CHECK_MSG(
      config_.degrade_depth <= config_.queue_capacity,
      "degrade_depth beyond the queue capacity would never trigger");
}

SchedulerService::~SchedulerService() {
  for (auto& queue : queues_) queue->close();
  for (auto& worker : workers_) {
    if (!worker.valid()) continue;
    try {
      worker.get();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
      // A worker that died mid-episode has nothing left to report here.
    }
  }
  workers_.clear();
  pool_.reset();
}

void SchedulerService::begin_episode() {
  MLCR_CHECK_MSG(pool_ == nullptr, "begin_episode() while workers run");
  const std::size_t nodes = fleet_.node_count();

  // MLCR detection: MLCR nodes share one frozen DqnAgent, read through
  // each scheduler's own inference workspace, so their decide() calls run
  // concurrently under their stripes alone; mlcr_mode only counts them.
  // Fleets mixing MLCR and heuristic nodes are rejected.
  std::size_t mlcr_nodes = 0;
  for (std::size_t i = 0; i < nodes; ++i)
    if (dynamic_cast<const core::MlcrScheduler*>(&fleet_.node_scheduler(i)) !=
        nullptr)
      ++mlcr_nodes;
  MLCR_CHECK_MSG(mlcr_nodes == 0 || mlcr_nodes == nodes,
                 "fleets mixing MLCR and non-MLCR nodes are unsupported");
  mlcr_mode_ = mlcr_nodes == nodes;

  for (std::size_t i = 0; i < nodes; ++i) {
    fleet_.node_env(i).reset_streaming();
    fleet_.node_scheduler(i).on_episode_start(fleet_.node_env(i));
  }
  // Per-node fault injectors (empty on a faultless plan — that path is
  // bit-identical to the pre-§14 service).
  injectors_ = fleet_.make_injectors();
  fleet_.reset_routable();
  // Policies route over the initial routable prefix; spares admitted later
  // are reachable through the index's failover/least-outstanding queries.
  policy_->on_episode_start(fleet_.routable_count());

  index_ = std::make_unique<ShardedFleetIndex>(nodes,
                                               policy_->needs_warm_index());
  for (std::size_t i = 0; i < nodes; ++i) {
    index_->update(i, fleet_.node_env(i));
    index_->set_routable(i, fleet_.node_routable(i));
  }

  queues_.clear();
  for (std::size_t w = 0; w < config_.workers; ++w)
    queues_.push_back(
        std::make_unique<BoundedQueue<Request>>(config_.queue_capacity));
  shard_mutexes_.clear();
  for (std::size_t s = 0; s < std::min(config_.shards, nodes); ++s)
    shard_mutexes_.push_back(std::make_unique<std::mutex>());

  submit_cursor_.store(0, std::memory_order_relaxed);
  janitor_cursor_.store(0, std::memory_order_relaxed);
  for (auto* counter :
       {&submitted_, &routed_, &rejected_, &degraded_, &lost_, &rerouted_,
        &batches_, &inference_calls_, &node_crashes_,
        &node_recoveries_, &domain_crashes_, &partial_crashes_,
        &spares_activated_})
    counter->store(0, std::memory_order_relaxed);
  in_episode_ = true;
  if (telemetry_ != nullptr)
    telemetry_->begin_episode(nodes, config_.workers, clock_.now_s());
}

void SchedulerService::start() {
  MLCR_CHECK_MSG(in_episode_, "start() before begin_episode()");
  MLCR_CHECK_MSG(pool_ == nullptr, "start() while workers already run");
  pool_ = std::make_unique<util::ThreadPool>(config_.workers);
  workers_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w)
    workers_.push_back(pool_->submit([this, w] { worker_loop(w); }));
}

bool SchedulerService::submit(const sim::Invocation& inv) {
  MLCR_CHECK_MSG(in_episode_, "submit() outside an episode");
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t slot =
      submit_cursor_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  BoundedQueue<Request>& queue = *queues_[slot];
  const std::size_t depth = queue.size();
  const bool degraded =
      config_.degrade_depth > 0 && depth >= config_.degrade_depth;
  const bool accepted = queue.try_push({inv, degraded});
  if (!accepted) rejected_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry_ != nullptr)
    telemetry_->on_submit(inv, slot, depth, degraded, accepted,
                          clock_.now_s());
  return accepted;
}

std::size_t SchedulerService::pump_once() {
  MLCR_CHECK_MSG(in_episode_, "pump_once() outside an episode");
  MLCR_CHECK_MSG(pool_ == nullptr,
                 "pump_once() is the single-threaded drive path");
  std::size_t processed = 0;
  std::vector<Request> batch;
  batch.reserve(config_.batch);
  for (auto& queue : queues_) {
    for (;;) {
      batch.clear();
      if (queue->drain_nowait(batch, config_.batch) == 0) break;
      processed += batch.size();
      process_batch(batch);
    }
  }
  return processed;
}

void SchedulerService::worker_loop(std::size_t worker) {
  BoundedQueue<Request>& queue = *queues_[worker];
  std::vector<Request> batch;
  batch.reserve(config_.batch);
  for (;;) {
    batch.clear();
    if (queue.pop_batch(batch, config_.batch) == 0) return;
    process_batch(batch);
  }
}

ServeSummary SchedulerService::finish_episode() {
  MLCR_CHECK_MSG(in_episode_, "finish_episode() outside an episode");
  for (auto& queue : queues_) queue->close();
  if (pool_ != nullptr) {
    for (auto& worker : workers_) worker.get();
    workers_.clear();
    pool_.reset();
  } else {
    // Pump-driven episode: serve whatever is still queued, as a worker
    // draining after close() would.
    (void)pump_once();
  }

  // Any node still inside a crash window recovers before the episode closes
  // (the fleet twin fires the plan's tail recoveries in finish_run; live
  // chaos may simply never have recovered a node). Counted like any other
  // recovery.
  for (std::size_t i = 0; i < fleet_.node_count(); ++i)
    if (fleet_.node_env(i).down()) (void)apply_recover(i);

  ServeSummary out;
  out.stats = stats();
  std::vector<fleet::NodeObservation> observations;
  observations.reserve(fleet_.node_count());
  for (std::size_t i = 0; i < fleet_.node_count(); ++i) {
    sim::ClusterEnv& env = fleet_.node_env(i);
    env.finish_streaming();
    observations.push_back(
        {policies::summarize_env(env, fleet_.node_scheduler(i).name()),
         &env.metrics()});
  }
  out.fleet =
      fleet::aggregate_fleet(policy_->name(), fleet_.system_name(),
                             observations);
  out.fleet.lost = out.stats.lost;
  out.fleet.rerouted = out.stats.rerouted;
  out.fleet.node_crashes = out.stats.node_crashes;
  out.fleet.node_recoveries = out.stats.node_recoveries;
  out.fleet.domain_crashes = out.stats.domain_crashes;
  out.fleet.partial_crashes = out.stats.partial_crashes;
  out.fleet.spares_activated = out.stats.spares_activated;

  // Conservation: every submission ends in exactly one bucket, and every
  // dispatched request became exactly one node invocation.
  MLCR_CHECK_MSG(out.stats.submitted ==
                     out.stats.routed + out.stats.rejected + out.stats.lost,
                 "service lost track of " << out.stats.submitted << " - ("
                                          << out.stats.routed << " + "
                                          << out.stats.rejected << " + "
                                          << out.stats.lost << ") requests");
  MLCR_CHECK_MSG(out.stats.routed == out.fleet.total.invocations,
                 "routed " << out.stats.routed << " requests but the nodes "
                           << "recorded " << out.fleet.total.invocations
                           << " invocations");

  if (telemetry_ != nullptr) telemetry_->end_episode(clock_.now_s());

  // The envs borrow the injectors; detach before the service drops them.
  if (!injectors_.empty())
    for (std::size_t i = 0; i < fleet_.node_count(); ++i)
      fleet_.node_env(i).set_fault_injector(nullptr);
  injectors_.clear();

  in_episode_ = false;
  index_.reset();
  queues_.clear();
  shard_mutexes_.clear();
  return out;
}

ServeStats SchedulerService::stats() const {
  ServeStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.routed = routed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.lost = lost_.load(std::memory_order_relaxed);
  s.rerouted = rerouted_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.inference_calls = inference_calls_.load(std::memory_order_relaxed);
  s.max_wave = s.inference_calls > 0 ? 1 : 0;
  s.node_crashes = node_crashes_.load(std::memory_order_relaxed);
  s.node_recoveries = node_recoveries_.load(std::memory_order_relaxed);
  s.domain_crashes = domain_crashes_.load(std::memory_order_relaxed);
  s.partial_crashes = partial_crashes_.load(std::memory_order_relaxed);
  s.spares_activated = spares_activated_.load(std::memory_order_relaxed);
  return s;
}

const ShardedFleetIndex& SchedulerService::index() const {
  MLCR_CHECK_MSG(index_ != nullptr, "index() outside an episode");
  return *index_;
}

bool SchedulerService::apply_crash(std::size_t node, bool partial) {
  MLCR_CHECK_MSG(in_episode_, "apply_crash() outside an episode");
  MLCR_CHECK_MSG(node < fleet_.node_count(),
                 "apply_crash() on unknown node " << node);
  std::optional<std::size_t> spare;
  {
    const std::size_t stripe = stripe_of(node);
    std::lock_guard lock(*shard_mutexes_[stripe]);
    const util::LockRankScope lock_rank(
        util::lock_ranks::service_shard(stripe), "service stripe mutex");
    const sim::ClusterEnv& env = fleet_.node_env(node);
    if (env.down()) return false;
    crash_node(node, std::max(clock_.now_s(), env.now()), partial);
    spare = fleet_.activate_spare();
  }
  // Outside the crashed node's stripe lock: the spare's stripe may rank
  // below it, and the ascending-order discipline forbids acquiring
  // backwards.
  if (spare) {
    const std::size_t stripe = stripe_of(*spare);
    std::lock_guard lock(*shard_mutexes_[stripe]);
    const util::LockRankScope lock_rank(
        util::lock_ranks::service_shard(stripe), "service stripe mutex");
    admit_spare(*spare, clock_.now_s());
  }
  return true;
}

bool SchedulerService::apply_recover(std::size_t node) {
  MLCR_CHECK_MSG(in_episode_, "apply_recover() outside an episode");
  MLCR_CHECK_MSG(node < fleet_.node_count(),
                 "apply_recover() on unknown node " << node);
  const std::size_t stripe = stripe_of(node);
  std::lock_guard lock(*shard_mutexes_[stripe]);
  const util::LockRankScope lock_rank(util::lock_ranks::service_shard(stripe),
                                      "service stripe mutex");
  const sim::ClusterEnv& env = fleet_.node_env(node);
  if (!env.down()) return false;
  recover_node(node, std::max(clock_.now_s(), env.now()));
  return true;
}

std::size_t SchedulerService::apply_domain_crash(std::size_t domain_id,
                                                 bool partial) {
  MLCR_CHECK_MSG(in_episode_, "apply_domain_crash() outside an episode");
  const faults::FailureDomain* domain = nullptr;
  for (const faults::FailureDomain& d : fleet_.config().faults.domains)
    if (d.id == domain_id) domain = &d;
  MLCR_CHECK_MSG(domain != nullptr, "apply_domain_crash() on unknown domain "
                                        << domain_id);
  std::vector<std::size_t> members = domain->nodes;
  std::sort(members.begin(), members.end());
  std::size_t crashed = 0;
  for (const std::size_t node : members) {
    if (!apply_crash(node, partial)) continue;
    if (crashed == 0) {
      // First member down leads the domain event, as in the planned path.
      domain_crashes_.fetch_add(1, std::memory_order_relaxed);
      if (telemetry_ != nullptr)
        telemetry_->on_domain_crash(domain_id, partial, clock_.now_s());
    }
    ++crashed;
  }
  return crashed;
}

void SchedulerService::crash_node(std::size_t node, double at, bool partial) {
  sim::ClusterEnv& env = fleet_.node_env(node);
  env.crash(at, partial);
  index_->update(node, env);
  node_crashes_.fetch_add(1, std::memory_order_relaxed);
  if (partial) partial_crashes_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry_ != nullptr) telemetry_->on_node_crash(node, partial, at);
}

void SchedulerService::recover_node(std::size_t node, double at) {
  sim::ClusterEnv& env = fleet_.node_env(node);
  env.recover(at);
  index_->update(node, env);
  node_recoveries_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry_ != nullptr) telemetry_->on_node_recover(node, at);
}

void SchedulerService::admit_spare(std::size_t spare, double at) {
  index_->update(spare, fleet_.node_env(spare));
  index_->set_routable(spare, true);
  spares_activated_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry_ != nullptr) telemetry_->on_spare_activated(spare, at);
}

std::optional<std::size_t> SchedulerService::apply_fault_event(
    const fleet::FleetEnv::FaultEvent& ev, bool clamp) {
  const sim::ClusterEnv& env = fleet_.node_env(ev.node);
  const double at = clamp ? std::max(ev.time, env.now()) : ev.time;
  if (ev.is_recovery) {
    if (!clamp || env.down()) recover_node(ev.node, at);
    return std::nullopt;
  }
  crash_node(ev.node, at, ev.partial);
  if (ev.domain_lead) {
    domain_crashes_.fetch_add(1, std::memory_order_relaxed);
    if (telemetry_ != nullptr)
      telemetry_->on_domain_crash(ev.domain, ev.partial, at);
  }
  const std::optional<std::size_t> spare = fleet_.activate_spare();
  if (spare) admit_spare(*spare, at);
  return spare;
}

fleet::Placement SchedulerService::pick_target(
    const sim::Invocation& inv) const {
  const std::size_t pick = policy_->route(*index_, fleet_.functions(), inv);
  return index_->read([pick](const fleet::FleetIndex& index) {
    MLCR_CHECK_MSG(pick < index.routable_count(),
                   "policy picked node " << pick << " outside the "
                                         << index.routable_count()
                                         << " routable nodes");
    return fleet::fail_over(index, pick);
  });
}

std::optional<std::size_t> SchedulerService::serve_one(const Request& req) {
  fleet::Placement route = pick_target(req.inv);
  bool rerouted = route.rerouted;
  for (;;) {
    if (route.lost) {
      lost_.fetch_add(1, std::memory_order_relaxed);
      if (telemetry_ != nullptr) telemetry_->on_lost(req.inv, clock_.now_s());
      return std::nullopt;
    }
    if (telemetry_ != nullptr)
      telemetry_->on_route(req.inv, route.node, rerouted, clock_.now_s());
    if (dispatch_one(req, route.node, rerouted)) {
      if (rerouted) rerouted_.fetch_add(1, std::memory_order_relaxed);
      return route.node;
    }
    // The node crashed between routing and its stripe lock. The crash
    // updated the index before releasing that lock, so the failover rule
    // sees it down (or back up, if it has recovered since).
    const std::size_t crashed = route.node;
    route = index_->read([crashed](const fleet::FleetIndex& index) {
      return fleet::fail_over(index, crashed);
    });
    rerouted = rerouted || route.rerouted;
  }
}

bool SchedulerService::dispatch_one(const Request& req, std::size_t target,
                                    bool rerouted) {
  const std::size_t stripe = stripe_of(target);
  std::lock_guard lock(*shard_mutexes_[stripe]);
  const util::LockRankScope lock_rank(util::lock_ranks::service_shard(stripe),
                                      "service stripe mutex");
  sim::ClusterEnv& env = fleet_.node_env(target);
  if (env.down()) return false;
  sim::Invocation inv = req.inv;
  // Concurrent ingestion can deliver a request after the node's clock moved
  // past its stamped arrival; clamping keeps offer()'s non-decreasing
  // arrival contract. A no-op in ordered single-threaded replay.
  if (inv.arrival_s < env.now()) inv.arrival_s = env.now();
  env.offer(inv);
  policies::Scheduler& scheduler = fleet_.node_scheduler(target);
  sim::Action action = sim::Action::cold();
  if (!req.degraded) {
    action = scheduler.decide(env, inv);
    if (mlcr_mode_) inference_calls_.fetch_add(1, std::memory_order_relaxed);
  }
  const sim::StepResult result = env.step(action);
  if (!req.degraded) scheduler.on_step_result(env, result);
  index_->update(target, env);
  routed_.fetch_add(1, std::memory_order_relaxed);
  if (req.degraded) degraded_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry_ != nullptr)
    telemetry_->on_dispatch(req.inv, target, req.degraded, rerouted, result,
                            clock_.now_s());
  return true;
}

void SchedulerService::process_batch(const std::vector<Request>& batch) {
  if (batch.empty()) return;
  batches_.fetch_add(1, std::memory_order_relaxed);
  for (const Request& req : batch) (void)serve_one(req);
  janitor_step();
}

void SchedulerService::janitor_step() {
  const double now = clock_.now_s();
  // The janitor is the telemetry plane's heartbeat: SLO windows advance on
  // the injected clock, never the OS's.
  if (telemetry_ != nullptr) telemetry_->advance(now);
  const std::size_t node =
      janitor_cursor_.fetch_add(1, std::memory_order_relaxed) %
      fleet_.node_count();
  const std::size_t stripe = stripe_of(node);
  std::lock_guard lock(*shard_mutexes_[stripe]);
  const util::LockRankScope lock_rank(util::lock_ranks::service_shard(stripe),
                                      "service stripe mutex");
  sim::ClusterEnv& env = fleet_.node_env(node);
  if (env.now() >= now) return;
  env.advance_to(now);
  index_->update(node, env);
}

ServeSummary SchedulerService::run_replay(const sim::Trace& trace) {
  auto* sim_clock = dynamic_cast<SimClock*>(&clock_);
  MLCR_CHECK_MSG(sim_clock != nullptr,
                 "run_replay() requires a simulated clock");
  MLCR_CHECK_MSG(pool_ == nullptr, "run_replay() while workers run");
  begin_episode();

  // The event core FleetEnv::run drives, over the same fault-event list:
  // node advances and faults fire in the identical order.
  fleet::EventCore events(fleet_.node_count(), fleet_.fault_events());
  const auto reschedule = [&](std::size_t node) {
    events.reschedule(node, fleet_.node_env(node).next_event_time());
  };
  for (std::size_t i = 0; i < fleet_.node_count(); ++i) reschedule(i);
  const auto fire_fault = [&](const fleet::FleetEnv::FaultEvent& ev,
                              bool clamp) {
    const std::optional<std::size_t> spare = apply_fault_event(ev, clamp);
    reschedule(ev.node);
    if (spare) reschedule(*spare);
  };

  double last_arrival = 0.0;
  for (const sim::Invocation& inv : trace.invocations()) {
    MLCR_CHECK_MSG(inv.arrival_s >= last_arrival,
                   "replay traces must be sorted by arrival");
    last_arrival = inv.arrival_s;
    while (const auto ev = events.pop_due(inv.arrival_s)) {
      if (ev->fault != nullptr) {
        sim_clock->advance_to(ev->time);
        fire_fault(*ev->fault, /*clamp=*/false);
        continue;
      }
      sim::ClusterEnv& env = fleet_.node_env(ev->node);
      env.advance_to(ev->time);
      index_->update(ev->node, env);
      reschedule(ev->node);
    }
    sim_clock->advance_to(inv.arrival_s);
    submitted_.fetch_add(1, std::memory_order_relaxed);
    // Replay bypasses the queues, so the ingest hook fires here: queue slot
    // as submit() would round-robin it, depth 0 (nothing ever queues).
    if (telemetry_ != nullptr)
      telemetry_->on_submit(inv, inv.seq % config_.workers, 0, false, true,
                            inv.arrival_s);
    // The live path's serve_one, one request at a time in arrival order, as
    // FleetEnv::dispatch does, so the replay is bit-identical to run().
    if (const auto target = serve_one({inv, false})) reschedule(*target);
    // No janitor runs in replay; advance the SLO windows off the SimClock
    // directly so the telemetry stream stays a pure function of the trace.
    if (telemetry_ != nullptr) telemetry_->advance(inv.arrival_s);
  }
  // Episode tail: fire what remains of the plan (clamped to node clocks, as
  // FleetEnv::finish_run does) so crash/recovery counts match it.
  const auto& fault_events = fleet_.fault_events();
  for (std::size_t f = events.next_fault(); f < fault_events.size(); ++f) {
    const fleet::FleetEnv::FaultEvent& ev = fault_events[f];
    if (ev.time > sim_clock->now_s()) sim_clock->advance_to(ev.time);
    fire_fault(ev, /*clamp=*/true);
  }
  return finish_episode();
}

}  // namespace mlcr::serve
