// ClusterEnv: the discrete-event serverless platform (paper Fig. 4) that the
// schedulers — and the DRL agent — interact with. It advances simulated time
// along a sequence of invocations, moves containers between "busy on a
// worker" and the warm pool, applies eviction / TTL expiry, and records
// metrics.
//
// The interaction protocol is gym-like and identical for heuristic and
// learned schedulers:
//
//   env.reset(trace);
//   while (!env.done()) {
//     const Invocation& inv = env.current();
//     Action a = scheduler.decide(env, inv);
//     StepResult r = env.step(a);        // startup latency, match level, ...
//   }
//   env.metrics() / env.pool()            // records; pool statistics
//
// Every invocation enters a node the same way: it is offered (checked, the
// clock drained to its arrival) and then stepped. A trace-fed episode
// (reset(trace)) offers its own next invocation after each step; an open
// episode (reset_streaming(), used by the fleet) is offered one invocation
// at a time by its caller through offer().
//
// Invalid reuse actions (absent container, no-match image) degrade to a cold
// start, mirroring the paper's action semantics (Sec. IV-B: "if i is larger
// than the actual number of warm containers ... it also means cold start").
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "containers/pool.hpp"
#include "sim/cost_model.hpp"
#include "sim/invocation.hpp"
#include "sim/metrics.hpp"

namespace mlcr::faults {
class FaultInjector;
}

namespace mlcr::obs {
class Tracer;
}

namespace mlcr::sim {

/// Scheduling decision for one invocation.
struct Action {
  enum class Kind : std::uint8_t { kColdStart, kReuse };
  Kind kind = Kind::kColdStart;
  containers::ContainerId container = containers::kInvalidContainer;

  [[nodiscard]] static Action cold() noexcept { return {}; }
  [[nodiscard]] static Action reuse(containers::ContainerId id) noexcept {
    return {Kind::kReuse, id};
  }
};

/// Outcome of scheduling one invocation.
struct StepResult {
  StartupBreakdown breakdown;
  double latency_s = 0.0;
  containers::MatchLevel match = containers::MatchLevel::kNoMatch;
  bool cold = true;
  containers::ContainerId container = containers::kInvalidContainer;
  /// Every start attempt failed (fault injection, DESIGN.md §9): no
  /// container runs the invocation and latency_s holds the time spent on
  /// the failed attempts and backoffs. Always false without an injector.
  bool failed = false;
  /// Start attempts made (1 without faults; retries add more).
  std::size_t attempts = 1;
};

using EvictionPolicyFactory =
    std::function<std::unique_ptr<containers::EvictionPolicy>()>;

/// How a reused container is adapted to the arriving function.
enum class ReuseSemantics : std::uint8_t {
  /// MLCR repacking (Sec. III): mismatched level volumes are swapped out,
  /// the container's image *becomes* the function's image.
  kRepack,
  /// Union / zygote-style (paper Fig. 1 "W"; Li et al. ATC'22): missing
  /// packages are pulled and added, nothing is removed — the container
  /// grows and can serve every function it has absorbed, at the price of a
  /// growing memory footprint.
  kUnion,
};

struct EnvConfig {
  /// Warm pool memory budget, MB: the pool's only bound (paper Sec. III).
  double pool_capacity_mb = 4096.0;
  /// If set, idle containers expire after this many seconds (KeepAlive).
  std::optional<double> keep_alive_ttl_s;
  ReuseSemantics reuse_semantics = ReuseSemantics::kRepack;
};

class ClusterEnv {
 public:
  ClusterEnv(const FunctionTable& functions,
             const containers::PackageCatalog& catalog,
             StartupCostModel cost_model, EnvConfig config,
             EvictionPolicyFactory eviction_factory);

  /// Start a new episode over `trace` (kept by reference; must outlive the
  /// episode): reset_streaming(), then the trace feeds itself — its first
  /// invocation is offered here and each step() offers the next, finishing
  /// the episode after the last. offer() and finish_streaming() reject a
  /// trace-fed episode.
  void reset(const Trace& trace);

  /// Start an open-ended streaming episode: the trace is not known up front
  /// and invocations are appended one at a time via offer(). Rebuilds the
  /// pool with a fresh eviction policy. Used by the fleet layer, where a
  /// front-end router decides online which node sees each invocation.
  void reset_streaming();

  /// Append the next invocation of a streaming episode and advance simulated
  /// time to its arrival (so schedulers observe the pool state at that
  /// instant). Requires done() — the previous invocation must have been
  /// stepped — a known function and a non-decreasing arrival time.
  void offer(Invocation inv);

  /// Streaming event API (DESIGN.md §10): advance to `time`, processing
  /// every completion and TTL expiry due on the way. Composable —
  /// advance_to(a); advance_to(b) with a <= b is state-identical to
  /// advance_to(b) — which is what lets the event-driven fleet advance a
  /// node only as far as its next event instead of to every global arrival,
  /// and the serving janitor bring idle nodes' clocks up to the service
  /// clock. Requires done(); times <= now() are no-ops.
  void advance_to(double time);

  /// Earliest future time at which this node's observable state changes on
  /// its own (the next completion or the earliest possible TTL expiry), or
  /// nullopt when neither is pending. The TTL deadline is the smallest
  /// double t with t - oldest_idle > ttl under floating-point arithmetic,
  /// so advancing to it performs a real expiry (never a spurious wake-up)
  /// and never fires one early. A crashed node has no events.
  [[nodiscard]] std::optional<double> next_event_time() const;

  /// End a streaming episode: drain outstanding executions so pool
  /// peak/eviction statistics are complete (a trace-fed episode does this
  /// itself after its last invocation), then restore seq order in the
  /// records.
  void finish_streaming();

  [[nodiscard]] bool done() const noexcept;
  /// Next invocation to schedule. Requires !done().
  [[nodiscard]] const Invocation& current() const;
  /// Current simulated time (== current().arrival_s during an episode).
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Apply a scheduling decision to the current invocation. Requires !done().
  StepResult step(const Action& action);

  [[nodiscard]] const containers::WarmPool& pool() const;
  [[nodiscard]] std::size_t busy_count() const noexcept {
    return busy_.size();
  }
  [[nodiscard]] const MetricsCollector& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const FunctionTable& functions() const noexcept {
    return functions_;
  }
  [[nodiscard]] const containers::PackageCatalog& catalog() const noexcept {
    return catalog_;
  }
  [[nodiscard]] const StartupCostModel& cost_model() const noexcept {
    return cost_model_;
  }
  [[nodiscard]] const EnvConfig& config() const noexcept { return config_; }

  /// Table-I match between the current pool container and a function type.
  /// Returns kNoMatch for unknown containers.
  [[nodiscard]] containers::MatchLevel match_for(
      containers::ContainerId id, FunctionTypeId function) const;

  /// Attach a tracer: every step() emits match/startup/exec lifecycle spans
  /// (with per-component startup children) in *simulated* time on
  /// (obs::Tracer::kSimPid, `track`), and the warm pool emits its
  /// admission/eviction instants on the same track. `track` is the fleet
  /// node index (0 single-node). The env does not own the tracer; nullptr
  /// detaches. Survives reset().
  void set_tracer(obs::Tracer* tracer, std::uint32_t track = 0) noexcept;
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }
  [[nodiscard]] std::uint32_t trace_track() const noexcept { return track_; }

  /// Attach a fault injector (DESIGN.md §9): step() then draws startup /
  /// repack failures and applies timeouts and retries from the injector's
  /// stream. The injector only draws; the env counts what happens (retries
  /// and failures in metrics(), crashes in crash_count()). The env does not
  /// own the injector; nullptr detaches (the default — without an injector
  /// every path is bit-identical to the pre-fault simulator). Survives
  /// reset().
  void set_fault_injector(faults::FaultInjector* injector) noexcept {
    injector_ = injector;
  }
  [[nodiscard]] faults::FaultInjector* fault_injector() const noexcept {
    return injector_;
  }

  /// Crash the node at `time` (>= now): in-flight executions are killed and
  /// their invocations retroactively failed, and offer()/step() reject work
  /// until recover(). A full crash (`partial` false) also drops the warm
  /// pool; a *partial* crash loses only compute — the pool survives the
  /// window, so the node rejoins warm instead of cold (DESIGN.md §14).
  /// Requires done() (the fleet crashes nodes between invocations) and a
  /// healthy node.
  void crash(double time, bool partial = false);
  /// Bring a crashed node back at `time`: it serves again with an empty
  /// pool after a full crash (the recovery cold-start storm the chaos bench
  /// measures) or with its surviving — TTL-expired as usual — pool after a
  /// partial one.
  void recover(double time);
  /// True while crashed (between crash() and recover()).
  [[nodiscard]] bool down() const noexcept { return down_; }
  /// True while inside a *partial* crash window (down() is also true).
  [[nodiscard]] bool partial_down() const noexcept { return partial_down_; }
  /// Crashes this episode, partial ones included.
  [[nodiscard]] std::size_t crash_count() const noexcept { return crashes_; }

  /// Cross-structure invariant auditor: pool byte accounting, busy/pooled
  /// disjointness (no container simultaneously busy and reusable), pooled
  /// containers' level keys equal to the function table's interned ids for
  /// their images, metrics aggregate consistency, and clock/index sanity.
  /// Throws util::CheckError on violation. Runs after every event in
  /// audit-enabled builds (see util/audit.hpp); tests call it directly on
  /// corrupted state.
  void audit() const;

 private:
  friend struct EnvTestPeer;  ///< test-only corruption hook (tests/sim)

  struct Completion {
    double time = 0.0;
    containers::Container container;
    std::size_t record = 0;  ///< index in metrics_, to fail it on a crash
  };
  struct CompletionOrder {
    bool operator()(const Completion& a, const Completion& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;  // min-heap on time
      return a.container.id > b.container.id;        // deterministic ties
    }
  };

  /// Process completions up to `time` (inclusive) and TTL expiry.
  void drain_to(double time);
  void finish_episode();
  /// offer() without its trace-fed check and audit: what step() runs to
  /// take a trace-fed episode's next invocation.
  void intake(const Invocation& inv);
  /// A fresh container with fn's image, created now; sets `result` to a
  /// cold start of fn.
  [[nodiscard]] containers::Container start_cold(const FunctionType& fn,
                                                 StepResult& result);
  /// Emit the lifecycle events for one scheduled invocation (tracer attached
  /// and enabled; all timestamps are simulated time).
  void trace_step(const Invocation& inv, const FunctionType& fn,
                  const StepResult& result) const;

  const FunctionTable& functions_;
  const containers::PackageCatalog& catalog_;
  StartupCostModel cost_model_;
  EnvConfig config_;
  EvictionPolicyFactory eviction_factory_;

  /// The trace a trace-fed episode feeds itself from; nullptr in a
  /// streaming episode (and before the first reset).
  const Trace* trace_ = nullptr;
  /// The last offered invocation (the current one until step()) and how
  /// many were offered this episode. Nothing else of an offered invocation
  /// is kept.
  Invocation pending_;
  std::size_t offered_ = 0;
  std::size_t next_index_ = 0;
  double now_ = 0.0;
  std::unique_ptr<containers::WarmPool> pool_;
  std::priority_queue<Completion, std::vector<Completion>, CompletionOrder>
      busy_;
  containers::ContainerId next_container_id_ = 0;
  MetricsCollector metrics_;
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t track_ = 0;
  faults::FaultInjector* injector_ = nullptr;
  bool down_ = false;
  bool partial_down_ = false;  ///< of down_: warm pool kept (partial crash)
  std::size_t crashes_ = 0;
};

}  // namespace mlcr::sim
