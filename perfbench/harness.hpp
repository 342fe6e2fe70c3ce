// Shared plumbing of the repository benchmark: wall timing, the result
// record every workload fills, per-request stamp logs, and the decorators
// that measure each layer from outside through the seams the library already
// takes from its caller (policies::Scheduler, fleet::Router,
// serve::RoutePolicy). See README.md for the workloads and metrics.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet_index.hpp"
#include "fleet/metrics.hpp"
#include "fleet/router.hpp"
#include "fstartbench/benchmark.hpp"
#include "policies/scheduler.hpp"
#include "serve/policy.hpp"

namespace perfbench {

using namespace mlcr;

/// Monotonic wall time in nanoseconds.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// On-CPU time of the calling thread in nanoseconds. Single-threaded work
/// timed with it leaves out the time other processes (or the hypervisor)
/// held the CPU, which a shared machine hands out unevenly.
[[nodiscard]] inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

[[nodiscard]] inline double ns_to_us(std::int64_t ns) {
  return static_cast<double>(ns) / 1e3;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string model_path;
  /// Hardware threads of the machine (provenance; every workload runs on
  /// one thread).
  std::size_t nproc = 1;
};

/// What one workload run reports: counts, correctness failures, and metric
/// values by name (units live in main.cpp's metric tables).
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;
  /// Extra provenance fields (thread counts, sizes), printed with the run.
  std::vector<std::pair<std::string, std::string>> notes;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Per-layer metrics of layers this workload does not run: reported as 0.
  void not_exercised(std::initializer_list<const char*> names) {
    for (const char* name : names) metrics[name] = 0.0;
  }
  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
};

/// q-quantile (0..1) by nearest rank; 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size() - 1),
                       q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Builds a workload's inputs (traces, fleet, model) and times each build
/// (on-CPU). Workloads rebuild before every repeat, so the samples spread
/// over the whole run and setup_s, their median, does not hinge on the
/// moment one build happened to run at.
template <typename World>
class Setup {
 public:
  explicit Setup(std::function<std::unique_ptr<World>()> build)
      : build_(std::move(build)) {}

  /// Drop the current inputs and build `times` fresh ones; keeps the last.
  World& rebuild(std::size_t times) {
    for (std::size_t i = 0; i < times; ++i) {
      world_.reset();
      const std::int64_t t0 = thread_cpu_ns();
      world_ = build_();
      secs_.push_back(static_cast<double>(thread_cpu_ns() - t0) / 1e9);
    }
    return *world_;
  }
  [[nodiscard]] World& world() { return *world_; }
  [[nodiscard]] double median_s() const { return median(secs_); }

 private:
  std::function<std::unique_ptr<World>()> build_;
  std::unique_ptr<World> world_;
  std::vector<double> secs_;
};

/// The simulated outputs a deterministic workload must reproduce exactly.
struct SimFingerprint {
  double total_latency_s = 0.0;
  std::size_t invocations = 0;
  std::size_t cold = 0;
  std::size_t l1 = 0;
  std::size_t l2 = 0;
  std::size_t l3 = 0;
  std::size_t evictions = 0;

  static SimFingerprint of(const fleet::FleetSummary& s) {
    return {s.total.total_latency_s, s.total.invocations, s.total.cold_starts,
            s.total.warm_l1,         s.total.warm_l2,     s.total.warm_l3,
            s.total.evictions};
  }
  bool operator==(const SimFingerprint&) const = default;
};

/// At least `total` invocations of the paper's 400-invocation overall workload,
/// drawn again every 400 invocations (each draw picks new per-function
/// rates) and laid back to back in time. `population` draws the segments
/// (rates, counts, execution times); `arrivals` then places every invocation
/// uniformly over its segment's span, which is how a Poisson process spreads
/// a given number of arrivals, so the seed moves the timing and not the mix.
[[nodiscard]] sim::Trace overall_segments(const fstartbench::Benchmark& bench,
                                          std::size_t total,
                                          util::Rng& population,
                                          util::Rng& arrivals);

/// Fill the simulated-quality metrics: the end-to-end mean startup and cold
/// share, and the containers layer's reuse counts.
void set_sim_metrics(Outcome& out, const SimFingerprint& sim);

/// Per-request wall stamps in ns, indexed by the request's seq. `done` and
/// `route_in` are kept on every run; the other stage stamps only when traced.
struct RequestLog {
  RequestLog(std::size_t n, bool traced);

  std::size_t size() const noexcept { return done.size(); }

  bool traced;
  std::vector<std::int64_t> done;
  std::vector<std::int64_t> submit_in;
  std::vector<std::int64_t> submit_out;
  std::vector<std::int64_t> route_in;
  std::vector<std::int64_t> route_out;
  std::vector<std::int64_t> decide_in;
  std::vector<std::int64_t> decide_out;
  /// How often each request reached on_step_result (must be exactly once).
  std::unique_ptr<std::atomic<std::uint32_t>[]> done_count;
};

/// Where the node-scheduler decorators write: the current episode's log
/// (swapped between episodes, never while workers run) and how often each
/// node times a FleetIndex::update probe (0 = never).
struct Hooks {
  RequestLog* log = nullptr;
  std::size_t probe_every = 0;
};

/// Node scheduler decorator: stamps decide() entry/exit and on_step_result()
/// entry (the request's dispatch completion), and every `probe_every` steps
/// times FleetIndex::update on the node's live environment into a private
/// one-node index. One instance per node; the service calls it only under
/// that node's shard mutex, so its members need no locking.
class StampScheduler final : public policies::Scheduler {
 public:
  StampScheduler(std::unique_ptr<policies::Scheduler> inner, const Hooks& hooks)
      : inner_(std::move(inner)), hooks_(hooks) {}

  void on_episode_start(const sim::ClusterEnv& env) override;
  [[nodiscard]] sim::Action decide(const sim::ClusterEnv& env,
                                   const sim::Invocation& inv) override;
  void on_step_result(const sim::ClusterEnv& env,
                      const sim::StepResult& result) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  /// FleetIndex::update probe durations (ns) since the last take.
  std::vector<double> take_probe_ns() { return std::exchange(probe_ns_, {}); }

 private:
  std::unique_ptr<policies::Scheduler> inner_;
  const Hooks& hooks_;
  std::uint64_t seq_ = 0;
  std::size_t steps_ = 0;
  fleet::FleetIndex probe_index_{1, true};
  std::vector<double> probe_ns_;
};

/// Wrap every node's scheduler of `make` in a StampScheduler.
[[nodiscard]] std::function<policies::SystemSpec(std::size_t, util::Rng)>
stamped_system(std::function<policies::SystemSpec()> make, const Hooks& hooks);

/// Probe durations of every node of `fleet` (nodes must be stamped).
[[nodiscard]] std::vector<double> take_probes(fleet::FleetEnv& fleet);

/// fleet::Router decorator: stamps route() entry (always; the per-invocation
/// event-core time is measured between consecutive entries) and exit when
/// the log is traced.
class StampRouter final : public fleet::Router {
 public:
  StampRouter(std::unique_ptr<fleet::Router> inner, const Hooks& hooks)
      : inner_(std::move(inner)), hooks_(hooks) {}

  void on_episode_start(const fleet::FleetEnv& fleet) override {
    inner_->on_episode_start(fleet);
  }
  [[nodiscard]] std::size_t route(const fleet::FleetEnv& fleet,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] bool needs_warm_index() const override {
    return inner_->needs_warm_index();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<fleet::Router> inner_;
  const Hooks& hooks_;
};

/// serve::RoutePolicy decorator: stamps route() entry/exit per seq and counts
/// calls (a wave that closes on a repeated target routes that request again).
class StampPolicy final : public serve::RoutePolicy {
 public:
  StampPolicy(std::unique_ptr<serve::RoutePolicy> inner, const Hooks& hooks)
      : inner_(std::move(inner)), hooks_(hooks) {}

  void on_episode_start(std::size_t node_count) override {
    calls_.store(0, std::memory_order_relaxed);
    inner_->on_episode_start(node_count);
  }
  [[nodiscard]] std::size_t route(const serve::ShardedFleetIndex& index,
                                  const sim::FunctionTable& functions,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] bool needs_warm_index() const override {
    return inner_->needs_warm_index();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] std::size_t calls() const noexcept {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<serve::RoutePolicy> inner_;
  const Hooks& hooks_;
  std::atomic<std::size_t> calls_{0};
};

/// Peak resident set size of this process, MB.
[[nodiscard]] double peak_rss_mb();

// The workloads (one translation unit each).
Outcome run_serve_mlcr(const Options& options);
Outcome run_fleet_sim(const Options& options);

}  // namespace perfbench
