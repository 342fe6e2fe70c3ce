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
// Backpressure: a submit() that finds its queue at/above `degrade_depth` is
// accepted *degraded* — it will be served with a forced cold start, skipping
// the scheduler (the serving twin of the faults layer's
// degrade-rather-than-fail semantics); a submit() that finds the queue full
// is rejected outright. Always: submitted == routed + rejected + lost.
//
// Time never comes from the OS directly — an injected serve::Clock drives
// the janitor (and live arrival stamps), so the same service runs live
// (WallClock) or bit-reproducibly under run_replay() (SimClock).
//
// Faults (DESIGN.md §14): on a faulted fleet the service attaches per-node
// injectors at begin_episode() and fires the plan two ways — run_replay()
// merges the fleet's pre-sorted fault-event list into its episode loop
// (faults before node advances at equal times, exactly as FleetEnv::run),
// while live chaos drives apply_crash()/apply_recover()/apply_domain_crash()
// from ONE admin thread (the spare-admission and fleet routable-set state is
// not atomic; a single chaos driver concurrent with the workers is the
// supported model, and what the TSan tests pin). Crash events admit cold
// spares into the routable set via the index, so recovery capacity
// appears on the failover path without restarting the episode.
#pragma once

#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "faults/injector.hpp"
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
  /// Queue depth at/above which an accepted request is served degraded
  /// (forced cold start, scheduler bypassed). 0 disables degradation.
  std::size_t degrade_depth = 0;
  /// Max requests drained per worker wake-up (or per pump_once() step).
  std::size_t batch = 8;
};

/// Service-level accounting for one episode (all counters monotone).
struct ServeStats {
  std::size_t submitted = 0;  ///< every submit() call
  std::size_t routed = 0;     ///< dispatched to (and executed on) a node
  std::size_t rejected = 0;   ///< dropped at ingestion: queue full
  std::size_t degraded = 0;   ///< of routed: served with a forced cold start
  std::size_t lost = 0;       ///< accepted but no healthy node remained
  std::size_t rerouted = 0;   ///< target node down -> deterministic failover
  std::size_t batches = 0;    ///< consumer drains that served >= 1 request
  std::size_t inference_calls = 0;  ///< MLCR decide() calls (one per request)
  /// Requests per MLCR inference call: 1 once any MLCR decision ran, else 0.
  std::size_t max_wave = 0;

  // Fault-plane accounting (DESIGN.md §14); all 0 on a faultless episode.
  std::size_t node_crashes = 0;     ///< crash events fired (partial included)
  std::size_t node_recoveries = 0;  ///< recovery events fired
  std::size_t domain_crashes = 0;   ///< domain-level crash events (lead only)
  std::size_t partial_crashes = 0;  ///< of node_crashes: warm pool survived
  std::size_t spares_activated = 0;  ///< cold spares admitted by crashes
};

/// Episode result: the fleet-level summary (same accounting as
/// FleetEnv::run — summarize_env + aggregate_fleet per node) plus the
/// service-level counters.
struct ServeSummary {
  fleet::FleetSummary fleet;
  ServeStats stats;
};

class SchedulerService {
 public:
  /// The fleet must outlive the service. A faulted fleet is served too: the
  /// service attaches the fleet's injectors per episode and fires the crash
  /// schedule itself (run_replay's event merge, or the apply_* admin APIs
  /// live). `clock` is borrowed; `policy` is owned.
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

  /// Reset every node's streaming episode and scheduler, rebuild the index,
  /// create fresh queues, and zero the counters. Detects an MLCR
  /// fleet (all node schedulers are MlcrScheduler — mixed fleets are
  /// rejected), whose decide() calls dispatch serializes on the shared
  /// agent.
  void begin_episode();

  /// Spawn the worker threads (requires begin_episode()).
  void start();

  /// Enqueue one invocation; false when its queue was full (rejected).
  /// Thread-safe. Arrival stamps should come from the service clock (live)
  /// or the trace (replay); dispatch clamps them to the target node's clock.
  [[nodiscard]] bool submit(const sim::Invocation& inv);

  /// Single-threaded drive path for deterministic tests: drain and serve
  /// everything currently queued on the caller's thread (no workers may be
  /// running). Returns the number of requests served or dropped.
  std::size_t pump_once();

  /// Close the queues, drain what remains (joining the workers when
  /// start()ed), finish every node's streaming episode and aggregate the
  /// fleet summary. Ends the episode.
  [[nodiscard]] ServeSummary finish_episode();

  /// Deterministic replay: run `trace` through the full service path —
  /// index, routing policy, failover, per-node schedulers —
  /// single-threadedly in arrival order, driving the SimClock and the same
  /// fleet::EventCore FleetEnv::run drives (the fleet's fault-event list
  /// merged in, faults before node advances at equal times). With an
  /// up-to-date index every policy matches its fleet router decision for
  /// decision, so the returned fleet summary equals FleetEnv::run's,
  /// faulted plans included (asserted in tests/serve). Requires a SimClock.
  /// Runs its own episode.
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
  struct Request {
    sim::Invocation inv;
    bool degraded = false;
  };

  /// The policy's pick, placed by the failover rule over the index.
  [[nodiscard]] fleet::Placement pick_target(const sim::Invocation& inv) const;

  /// Route + dispatch one request. Returns the node served, or nullopt when
  /// the request was lost.
  std::optional<std::size_t> serve_one(const Request& req);

  /// Offer/decide/step/observe on `target` under its stripe mutex, then
  /// refresh the index entry. Mirrors FleetEnv::dispatch. False, with
  /// nothing dispatched, when `target` crashed after it was picked.
  /// `rerouted` is routing context forwarded to telemetry.
  bool dispatch_one(const Request& req, std::size_t target, bool rerouted);

  void process_batch(const std::vector<Request>& batch);

  /// Advance one node (round-robin) to the service clock so idle nodes
  /// still see completions and TTL expiry; called after every batch.
  void janitor_step();

  void worker_loop(std::size_t worker);
  [[nodiscard]] std::size_t stripe_of(std::size_t node) const noexcept {
    return node % shard_mutexes_.size();
  }

  // Fault transitions at time `at`, each refreshing the index and
  // recording counters and telemetry. The caller holds the node's stripe
  // mutex (the admin APIs; a spare's after the crashed node's is released,
  // since its stripe may rank lower) or is the single-threaded replay.
  void crash_node(std::size_t node, double at, bool partial);
  void recover_node(std::size_t node, double at);
  /// Admit `spare` into the routable set.
  void admit_spare(std::size_t spare, double at);

  /// Replay-path counterpart of FleetEnv::fire_fault_event: fire one
  /// pre-planned transition (single-threaded; no stripe mutexes). `clamp`
  /// is the episode-tail mode — times clamp to the node clock and stale
  /// recoveries are skipped. Returns the spare admitted by a crash, if any.
  std::optional<std::size_t> apply_fault_event(
      const fleet::FleetEnv::FaultEvent& ev, bool clamp);

  fleet::FleetEnv& fleet_;
  Clock& clock_;
  std::unique_ptr<RoutePolicy> policy_;
  ServeConfig config_;
  Telemetry* telemetry_ = nullptr;

  bool in_episode_ = false;
  bool mlcr_mode_ = false;
  std::unique_ptr<ShardedFleetIndex> index_;
  /// Per-node fault injectors on a faulted plan (empty otherwise); owned
  /// here because the service, not FleetEnv::run, drives the episode. The
  /// envs borrow them, so they detach at finish_episode().
  std::vector<std::unique_ptr<faults::FaultInjector>> injectors_;
  /// unique_ptr: queues/mutexes are neither movable nor copyable.
  std::vector<std::unique_ptr<BoundedQueue<Request>>> queues_;
  /// Dispatch stripes: node n's env is guarded by n % size().
  std::vector<std::unique_ptr<std::mutex>> shard_mutexes_;

  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<std::future<void>> workers_;

  std::atomic<std::size_t> submit_cursor_{0};
  std::atomic<std::size_t> janitor_cursor_{0};
  std::atomic<std::size_t> submitted_{0};
  std::atomic<std::size_t> routed_{0};
  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::size_t> degraded_{0};
  std::atomic<std::size_t> lost_{0};
  std::atomic<std::size_t> rerouted_{0};
  std::atomic<std::size_t> batches_{0};
  std::atomic<std::size_t> inference_calls_{0};
  std::atomic<std::size_t> node_crashes_{0};
  std::atomic<std::size_t> node_recoveries_{0};
  std::atomic<std::size_t> domain_crashes_{0};
  std::atomic<std::size_t> partial_crashes_{0};
  std::atomic<std::size_t> spares_activated_{0};
};

}  // namespace mlcr::serve
