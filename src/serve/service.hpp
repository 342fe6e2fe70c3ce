// SchedulerService: the online serving front-end over an MLCR fleet
// (DESIGN.md §11). Producers submit() invocations into bounded per-worker
// queues; worker threads drain them in batches and dispatch each request to
// a node picked by a RoutePolicy over the service's locked FleetIndex, then
// placed by the fleet's failover rule (fleet::fail_over). The node's own
// scheduler (any SystemSpec, including MLCR) then makes the container-reuse
// decision, exactly as in FleetEnv::run.
//
// Concurrency model (two-level locking):
//   - routing reads only the index (its shared lock) — never a node
//     environment;
//   - dispatch mutates node state under the service's dispatch-stripe
//     std::mutex (node n -> stripe n % stripes), re-checks under it that the
//     node is still up (a concurrent crash fails the request over), and
//     refreshes the index entry before releasing it, so readers never
//     observe a node mid-step;
//   - on an MLCR fleet every node shares one frozen DqnAgent; decide() only
//     reads it, through the node scheduler's own inference workspace
//     (QNetwork::infer is const), so it needs no lock beyond the stripe's;
//   - lock order is stripe mutex -> index lock, never reversed; no path
//     holds two stripe mutexes at once.
//
// Backpressure: a submit() that finds its queue full is rejected outright.
// Always: submitted == routed + rejected + lost.
//
// Time never comes from the OS directly — an injected serve::Clock drives
// the janitor (and live arrival stamps), so the same service runs live
// (WallClock) or bit-reproducibly pump-driven (SimClock).
//
// Two drive modes, one owner of node state. fleet::FleetEnv's episode steps
// (begin, dispatch, advance, fire_fault, finish) are the only code that
// changes a node; the service adds queues, dispatch locks, its index and
// its own lost/rerouted accounting around them.
//   - pump_once() (single-threaded, no workers) is the deterministic drive
//     FleetEnv::run does: before routing each request it fires every node
//     event and planned fault due by the request's arrival, from the same
//     fleet::EventCore over the fleet's fault-event list, and the episode
//     tail fires the rest of the plan. run_replay() is a loop of
//     submit + pump_once, one request per pump, so every policy reproduces
//     its fleet router's summary (pinned against
//     tests/fleet/fleet_golden.txt).
//   - start()ed workers never touch the event core: a janitor advances one
//     node per batch to the clock, and faults come only from the live admin
//     APIs apply_crash()/apply_recover()/apply_domain_crash(), driven from
//     ONE admin thread (spare admission and the fleet's fault counts are not
//     atomic; a single chaos thread concurrent with the workers is the
//     supported model, and what the TSan tests pin). In a pumped episode
//     call them from the pumping thread, between pumps.
// Crash events admit cold spares into the routable set via the index, so
// recovery capacity appears on the failover path without restarting the
// episode (DESIGN.md §14).
#pragma once

#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "fleet/event_core.hpp"
#include "fleet/fleet_env.hpp"
#include "fleet/metrics.hpp"
#include "fleet/router.hpp"
#include "serve/clock.hpp"
#include "serve/policy.hpp"
#include "serve/queue.hpp"
#include "serve/sharded_index.hpp"
#include "util/thread_pool.hpp"

namespace mlcr::serve {

class Telemetry;

struct ServeConfig {
  /// Worker threads; each owns one ingestion queue (submit round-robins).
  std::size_t workers = 1;
  /// Dispatch-mutex stripes (clamped to the node count): node n's state is
  /// guarded by stripe n % shards. The index is one lock either way.
  std::size_t shards = 1;
  /// Per-worker queue bound; a push into a full queue is rejected.
  std::size_t queue_capacity = 1024;
  /// Max requests drained per worker wake-up (or per pump_once() step).
  std::size_t batch = 8;
};

/// Service-level accounting for one episode (all counters monotone).
struct ServeStats {
  std::size_t submitted = 0;  ///< every submit() call
  std::size_t routed = 0;     ///< dispatched to (and executed on) a node
  std::size_t rejected = 0;   ///< dropped at ingestion: queue full
  std::size_t lost = 0;       ///< accepted but no healthy node remained
  std::size_t rerouted = 0;   ///< target node down -> deterministic failover
  std::size_t batches = 0;    ///< consumer drains that served >= 1 request
  /// MLCR decide() calls: one per routed request on an MLCR fleet, so
  /// `routed` there and 0 otherwise. Not forward passes: a decision whose
  /// mask allows one action runs none.
  std::size_t inference_calls = 0;
  /// Requests per MLCR decide() call: 1 once any MLCR decision ran, else 0.
  std::size_t max_wave = 0;
};

/// Episode result: the fleet-level summary (FleetEnv::finish_episode, fault
/// counts included) plus the service-level counters.
struct ServeSummary {
  fleet::FleetSummary fleet;
  ServeStats stats;
};

class SchedulerService {
 public:
  /// The fleet must outlive the service. A faulted fleet is served too: the
  /// pump fires its crash schedule, and the apply_* admin APIs add live
  /// crashes. `clock` is borrowed; `policy` is owned.
  SchedulerService(fleet::FleetEnv& fleet, Clock& clock,
                   std::unique_ptr<RoutePolicy> policy, ServeConfig config);
  ~SchedulerService();

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// Attach the telemetry plane (borrowed, may be null to detach; must
  /// outlive the service's episodes). Set it before begin_episode() so the
  /// episode reset and track metadata are recorded. Every request lifecycle
  /// event, the janitor's window advance, and the episode boundaries are
  /// reported; a null telemetry pointer costs one predicted branch per site.
  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

  /// Begin the fleet's episode (FleetEnv::begin_episode), rebuild the index
  /// and the event core, create fresh queues, and zero the counters.
  /// Detects an MLCR fleet (all node schedulers are MlcrScheduler — mixed
  /// fleets are rejected), whose decide() calls it counts.
  void begin_episode();

  /// Spawn the worker threads (requires begin_episode()). The episode is
  /// then worker-driven: the event core is dropped and the janitor runs.
  void start();

  /// Enqueue one invocation; false when its queue was full (rejected).
  /// Thread-safe. Arrival stamps should come from the service clock (live)
  /// or the trace (replay); dispatch clamps them to the target node's clock.
  [[nodiscard]] bool submit(const sim::Invocation& inv);

  /// The deterministic, single-threaded drive (no workers may be running):
  /// drain every queue, then serve what was queued on the caller's thread
  /// in (arrival, seq) order, `batch` requests at a time. Before routing
  /// each request, every node event and planned fault due at or before its
  /// arrival fires, as in FleetEnv::run, so requests submitted in arrival
  /// order get run()'s decisions however many queues there are and however
  /// they are grouped into pumps. Returns the number of requests served or
  /// dropped.
  std::size_t pump_once();

  /// Close the queues and drain what remains (joining the workers when
  /// start()ed). A pumped episode then fires the rest of the fault plan,
  /// clamped to the node clocks, as FleetEnv::run's tail does. Nodes still
  /// down recover, and the fleet closes its episode. Ends the episode;
  /// node i's records stay in fleet.node(i).metrics() until the next
  /// begin_episode().
  [[nodiscard]] ServeSummary finish_episode();

  /// Deterministic replay of `trace`: for each arrival, advance the
  /// SimClock, submit() and pump_once(); then finish_episode(). The
  /// returned fleet summary equals FleetEnv::run's with the matching
  /// router, faulted plans included (pinned in tests/fleet and
  /// tests/serve). Requires a SimClock. Runs its own episode.
  [[nodiscard]] ServeSummary run_replay(const sim::Trace& trace);

  // Live chaos admin APIs (DESIGN.md §14). Thread-safe against the workers,
  // but at most ONE admin thread may drive them at a time (spare admission
  // mutates non-atomic fleet state).

  /// Crash `node` now (clamped to its clock). False when it was already
  /// down. A partial crash kills only in-flight work; the warm pool
  /// survives. Every successful crash admits one cold spare while any
  /// remain.
  bool apply_crash(std::size_t node, bool partial = false);

  /// Recover `node` now. False when it was already up.
  bool apply_recover(std::size_t node);

  /// Crash every member of the configured failure domain `domain_id` (in
  /// ascending node order), counting/tracing the domain-level event once.
  /// Returns how many members actually went down.
  std::size_t apply_domain_crash(std::size_t domain_id, bool partial = false);

  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }
  [[nodiscard]] const RoutePolicy& policy() const noexcept { return *policy_; }
  [[nodiscard]] bool mlcr_mode() const noexcept { return mlcr_mode_; }
  /// Live counters (racy-but-monotone snapshot while workers run).
  [[nodiscard]] ServeStats stats() const;
  /// The episode's index (requires an episode in progress).
  [[nodiscard]] const ShardedFleetIndex& index() const;

 private:
  /// The policy's pick, placed by the failover rule over the index.
  [[nodiscard]] fleet::Placement pick_target(const sim::Invocation& inv) const;

  /// Route + dispatch one request, or count it lost.
  void serve_one(const sim::Invocation& inv);

  /// FleetEnv::dispatch on `target` under its stripe mutex, then refresh
  /// it. False, with nothing dispatched, when `target` crashed after it was
  /// picked. `rerouted` is routing context forwarded to telemetry.
  bool dispatch_one(const sim::Invocation& inv, std::size_t target,
                    bool rerouted);

  /// Re-read `node` into the index and, in a pumped episode, its event-core
  /// entry. The caller holds the node's stripe mutex.
  void refresh(std::size_t node);

  /// Fire every node event and planned fault due at or before `t`.
  void fire_due(double t);

  /// FleetEnv::fire_fault under the node's stripe mutex, then the admitted
  /// spare's refresh under its own (after the first is released: the
  /// spare's stripe may rank lower), then the telemetry hooks. False when a
  /// clamped transition found the node already in its target state.
  bool apply_fault(const fleet::FleetEnv::FaultEvent& ev, bool clamp);

  /// A live transition of `node` at the service clock (clamped), for the
  /// admin APIs; `lead_domain` counts this crash as a domain event.
  bool apply_live(std::size_t node, bool is_recovery, bool partial,
                  std::optional<std::size_t> lead_domain = std::nullopt);

  void process_batch(std::span<const sim::Invocation> batch);

  /// Advance one node (round-robin) to the service clock so idle nodes
  /// still see completions and TTL expiry; run by the workers after every
  /// batch.
  void janitor_step();

  void worker_loop(std::size_t worker);
  [[nodiscard]] std::size_t stripe_of(std::size_t node) const noexcept {
    return node % shard_mutexes_.size();
  }

  fleet::FleetEnv& fleet_;
  Clock& clock_;
  std::unique_ptr<RoutePolicy> policy_;
  ServeConfig config_;
  Telemetry* telemetry_ = nullptr;

  bool in_episode_ = false;
  bool mlcr_mode_ = false;
  std::unique_ptr<ShardedFleetIndex> index_;
  /// The pumped episode's event core over the fleet's fault-event list;
  /// null once start() hands the episode to the workers.
  std::unique_ptr<fleet::EventCore> events_;
  /// unique_ptr: queues/mutexes are neither movable nor copyable.
  std::vector<std::unique_ptr<BoundedQueue<sim::Invocation>>> queues_;
  /// Dispatch stripes: node n's env is guarded by n % size().
  std::vector<std::unique_ptr<std::mutex>> shard_mutexes_;

  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<std::future<void>> workers_;

  std::atomic<std::size_t> submit_cursor_{0};
  std::atomic<std::size_t> janitor_cursor_{0};
  std::atomic<std::size_t> submitted_{0};
  std::atomic<std::size_t> routed_{0};
  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::size_t> lost_{0};
  std::atomic<std::size_t> rerouted_{0};
  std::atomic<std::size_t> batches_{0};
};

}  // namespace mlcr::serve
