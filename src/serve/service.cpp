#include "serve/service.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <tuple>
#include <utility>

#include "core/mlcr.hpp"
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

  fleet_.begin_episode();
  // Policies route over the initial routable prefix; spares admitted later
  // are reachable through the index's failover/least-outstanding queries.
  policy_->on_episode_start(fleet_.routable_count());

  index_ = std::make_unique<ShardedFleetIndex>(nodes,
                                               policy_->needs_warm_index());
  events_ = std::make_unique<fleet::EventCore>(nodes, fleet_.fault_events());
  for (std::size_t i = 0; i < nodes; ++i) {
    refresh(i);
    index_->set_routable(i, fleet_.node_routable(i));
  }

  queues_.clear();
  for (std::size_t w = 0; w < config_.workers; ++w)
    queues_.push_back(std::make_unique<BoundedQueue<sim::Invocation>>(
        config_.queue_capacity));
  shard_mutexes_.clear();
  for (std::size_t s = 0; s < std::min(config_.shards, nodes); ++s)
    shard_mutexes_.push_back(std::make_unique<std::mutex>());

  submit_cursor_.store(0, std::memory_order_relaxed);
  janitor_cursor_.store(0, std::memory_order_relaxed);
  for (auto* counter : {&submitted_, &routed_, &rejected_, &lost_, &rerouted_,
                        &batches_})
    counter->store(0, std::memory_order_relaxed);
  in_episode_ = true;
  if (telemetry_ != nullptr)
    telemetry_->begin_episode(nodes, config_.workers, clock_.now_s());
}

void SchedulerService::start() {
  MLCR_CHECK_MSG(in_episode_, "start() before begin_episode()");
  MLCR_CHECK_MSG(pool_ == nullptr, "start() while workers already run");
  events_.reset();
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
  BoundedQueue<sim::Invocation>& queue = *queues_[slot];
  const std::size_t depth = queue.size();
  const bool accepted = queue.try_push(inv);
  if (!accepted) rejected_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry_ != nullptr)
    telemetry_->on_submit(inv, slot, depth, accepted, clock_.now_s());
  return accepted;
}

std::size_t SchedulerService::pump_once() {
  MLCR_CHECK_MSG(in_episode_, "pump_once() outside an episode");
  MLCR_CHECK_MSG(pool_ == nullptr,
                 "pump_once() is the single-threaded drive path");
  std::vector<sim::Invocation> pending;
  for (auto& queue : queues_)
    (void)queue->drain_nowait(pending, std::numeric_limits<std::size_t>::max());
  // submit() deals requests round-robin over the queues, so with several
  // queues each holds a slice of the arrival stream: serve them in arrival
  // order, as one queue would have.
  if (queues_.size() > 1)
    std::stable_sort(pending.begin(), pending.end(),
                     [](const sim::Invocation& a, const sim::Invocation& b) {
                       return std::tie(a.arrival_s, a.seq) <
                              std::tie(b.arrival_s, b.seq);
                     });
  const std::span<const sim::Invocation> all(pending);
  for (std::size_t i = 0; i < all.size(); i += config_.batch)
    process_batch(all.subspan(i, std::min(config_.batch, all.size() - i)));
  return pending.size();
}

void SchedulerService::worker_loop(std::size_t worker) {
  BoundedQueue<sim::Invocation>& queue = *queues_[worker];
  std::vector<sim::Invocation> batch;
  batch.reserve(config_.batch);
  for (;;) {
    batch.clear();
    if (queue.pop_batch(batch, config_.batch) == 0) return;
    process_batch(batch);
    janitor_step();
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
    // draining after close() would, then fire the rest of the plan.
    (void)pump_once();
    const auto& faults = fleet_.fault_events();
    for (std::size_t f = events_->next_fault(); f < faults.size(); ++f)
      (void)apply_fault(faults[f], /*clamp=*/true);
  }
  // Live chaos may never have recovered a node; it recovers before the
  // episode closes, counted like any other recovery.
  for (std::size_t i = 0; i < fleet_.node_count(); ++i)
    if (!fleet_.node_up(i)) (void)apply_live(i, /*is_recovery=*/true, false);

  ServeSummary out;
  out.stats = stats();
  out.fleet = fleet_.finish_episode(policy_->name(), out.stats.lost,
                                    out.stats.rerouted);

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

  in_episode_ = false;
  index_.reset();
  events_.reset();
  queues_.clear();
  shard_mutexes_.clear();
  return out;
}

ServeStats SchedulerService::stats() const {
  ServeStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.routed = routed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.lost = lost_.load(std::memory_order_relaxed);
  s.rerouted = rerouted_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.inference_calls = mlcr_mode_ ? s.routed : 0;
  s.max_wave = s.inference_calls > 0 ? 1 : 0;
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
  return apply_live(node, /*is_recovery=*/false, partial);
}

bool SchedulerService::apply_recover(std::size_t node) {
  MLCR_CHECK_MSG(in_episode_, "apply_recover() outside an episode");
  MLCR_CHECK_MSG(node < fleet_.node_count(),
                 "apply_recover() on unknown node " << node);
  return apply_live(node, /*is_recovery=*/true, false);
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
  // The first member down leads the domain event, as in the planned path.
  for (const std::size_t node : members)
    if (apply_live(node, /*is_recovery=*/false, partial,
                   crashed == 0 ? std::optional(domain_id) : std::nullopt))
      ++crashed;
  return crashed;
}

bool SchedulerService::apply_live(std::size_t node, bool is_recovery,
                                  bool partial,
                                  std::optional<std::size_t> lead_domain) {
  const fleet::FleetEnv::FaultEvent ev{
      clock_.now_s(), is_recovery, node,
      partial,        lead_domain.value_or(faults::kNoDomain),
      lead_domain.has_value()};
  return apply_fault(ev, /*clamp=*/true);
}

bool SchedulerService::apply_fault(const fleet::FleetEnv::FaultEvent& ev,
                                   bool clamp) {
  fleet::FleetEnv::Transition t;
  {
    const std::size_t stripe = stripe_of(ev.node);
    std::lock_guard lock(*shard_mutexes_[stripe]);
    const util::LockRankScope lock_rank(
        util::lock_ranks::service_shard(stripe), "service stripe mutex");
    t = fleet_.fire_fault(ev, clamp);
    if (!t.fired) return false;
    refresh(ev.node);
  }
  if (t.spare) {
    const std::size_t stripe = stripe_of(*t.spare);
    std::lock_guard lock(*shard_mutexes_[stripe]);
    const util::LockRankScope lock_rank(
        util::lock_ranks::service_shard(stripe), "service stripe mutex");
    refresh(*t.spare);
    index_->set_routable(*t.spare, true);
  }
  if (telemetry_ != nullptr) {
    if (ev.is_recovery) {
      telemetry_->on_node_recover(ev.node, t.at);
    } else {
      telemetry_->on_node_crash(ev.node, ev.partial, t.at);
      if (ev.domain_lead)
        telemetry_->on_domain_crash(ev.domain, ev.partial, t.at);
      if (t.spare) telemetry_->on_spare_activated(*t.spare, t.at);
    }
  }
  return true;
}

void SchedulerService::refresh(std::size_t node) {
  const sim::ClusterEnv& env = fleet_.node(node);
  index_->update(node, env);
  if (events_ != nullptr) events_->reschedule(node, env.next_event_time());
}

void SchedulerService::fire_due(double t) {
  while (const auto ev = events_->pop_due(t)) {
    if (ev->fault != nullptr) {
      (void)apply_fault(*ev->fault, /*clamp=*/false);
      continue;
    }
    const std::size_t stripe = stripe_of(ev->node);
    std::lock_guard lock(*shard_mutexes_[stripe]);
    const util::LockRankScope lock_rank(
        util::lock_ranks::service_shard(stripe), "service stripe mutex");
    // To the event's own time, never the arrival: a later fault on the
    // same node must not be jumped over.
    fleet_.advance(ev->node, ev->time);
    refresh(ev->node);
  }
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

void SchedulerService::serve_one(const sim::Invocation& inv) {
  fleet::Placement route = pick_target(inv);
  bool rerouted = route.rerouted;
  for (;;) {
    if (route.lost) {
      lost_.fetch_add(1, std::memory_order_relaxed);
      if (telemetry_ != nullptr) telemetry_->on_lost(inv, clock_.now_s());
      return;
    }
    if (telemetry_ != nullptr)
      telemetry_->on_route(inv, route.node, rerouted, clock_.now_s());
    if (dispatch_one(inv, route.node, rerouted)) {
      if (rerouted) rerouted_.fetch_add(1, std::memory_order_relaxed);
      return;
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

bool SchedulerService::dispatch_one(const sim::Invocation& inv,
                                    std::size_t target, bool rerouted) {
  const std::size_t stripe = stripe_of(target);
  std::lock_guard lock(*shard_mutexes_[stripe]);
  const util::LockRankScope lock_rank(util::lock_ranks::service_shard(stripe),
                                      "service stripe mutex");
  const sim::ClusterEnv& env = fleet_.node(target);
  if (env.down()) return false;
  sim::Invocation clamped = inv;
  // Concurrent ingestion can deliver a request after the node's clock moved
  // past its stamped arrival; clamping keeps offer()'s non-decreasing
  // arrival contract. A no-op in ordered single-threaded replay.
  if (clamped.arrival_s < env.now()) clamped.arrival_s = env.now();
  const sim::StepResult result = fleet_.dispatch(clamped, target);
  refresh(target);
  routed_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry_ != nullptr)
    telemetry_->on_dispatch(inv, target, rerouted, result, clock_.now_s());
  return true;
}

void SchedulerService::process_batch(
    std::span<const sim::Invocation> batch) {
  if (batch.empty()) return;
  batches_.fetch_add(1, std::memory_order_relaxed);
  for (const sim::Invocation& inv : batch) {
    if (events_ != nullptr) fire_due(inv.arrival_s);
    serve_one(inv);
  }
  // The telemetry plane's heartbeat: SLO windows advance on the injected
  // clock, never the OS's.
  if (telemetry_ != nullptr) telemetry_->advance(clock_.now_s());
}

void SchedulerService::janitor_step() {
  const double now = clock_.now_s();
  const std::size_t node =
      janitor_cursor_.fetch_add(1, std::memory_order_relaxed) %
      fleet_.node_count();
  const std::size_t stripe = stripe_of(node);
  std::lock_guard lock(*shard_mutexes_[stripe]);
  const util::LockRankScope lock_rank(util::lock_ranks::service_shard(stripe),
                                      "service stripe mutex");
  if (fleet_.node(node).now() >= now) return;
  fleet_.advance(node, now);
  refresh(node);
}

ServeSummary SchedulerService::run_replay(const sim::Trace& trace) {
  auto* sim_clock = dynamic_cast<SimClock*>(&clock_);
  MLCR_CHECK_MSG(sim_clock != nullptr,
                 "run_replay() requires a simulated clock");
  fleet_.validate_trace(trace);
  begin_episode();
  for (const sim::Invocation& inv : trace.invocations()) {
    sim_clock->advance_to(inv.arrival_s);
    (void)submit(inv);
    (void)pump_once();
  }
  // The episode ends when its last event does: the plan's tail fires in
  // finish_episode() at its own times.
  const auto& faults = fleet_.fault_events();
  if (!faults.empty() && faults.back().time > sim_clock->now_s())
    sim_clock->advance_to(faults.back().time);
  return finish_episode();
}

}  // namespace mlcr::serve
