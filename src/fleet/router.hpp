// Front-end request routing for a multi-node fleet. The router decides
// *which node* sees an invocation before that node's own scheduler decides
// *which container* serves it — at cluster scale this placement step
// dominates cold-start outcomes, because a warm container on the wrong node
// is worth nothing.
//
// Five policies plus one wrapper:
//   Random            — seeded uniform choice; the sanity floor.
//   Round-Robin       — classic load spreading, oblivious to warm state.
//   Least-Outstanding — fewest in-flight executions (power-of-all-choices).
//   Hash-Affinity     — consistent hashing on the function image's OS +
//                       language levels: functions sharing a package stack
//                       colocate, so Table-I L2/L3 matches stay possible,
//                       and the mapping is stable as nodes are added.
//   Warm-Aware        — route to the node holding the best Table-I match
//                       for this invocation (the fleet analog of
//                       Greedy-Match), looked up in the fleet's warm index.
//   Health-Aware(X)   — any of the above, steered off down and recently
//                       flaky nodes by a per-node failure EWMA.
//
// Each rule is written once, as pick() over a FleetIndex and the function
// table. FleetEnv::run calls route(), whose default is pick() over the
// run's index; the serving plane hosts the same object through
// serve::RouterPolicy, which calls pick() under the index's shared lock.
// So pick() may run on many threads at once: Random and Health-Aware guard
// their state with their own mutex, taken innermost (no other lock is
// acquired while it is held), and Round-Robin advances an atomic cursor.
// start() and pick() never overlap.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/invocation.hpp"
#include "util/rng.hpp"

namespace mlcr::sim {
class FunctionTable;
}

namespace mlcr::fleet {

class FleetEnv;
class FleetIndex;

/// Where a request a policy aimed at some node actually goes.
struct Placement {
  std::size_t node = 0;   ///< the serving node (the policy's pick when lost)
  bool rerouted = false;  ///< the pick was down; `node` took over
  bool lost = false;      ///< the pick was down and no healthy node remains
};

/// The failover rule, shared by FleetEnv::run and the serving plane: keep
/// `target` while it is up; otherwise move to the healthy routable node with
/// the fewest in-flight executions (lowest index on ties); lost when the
/// whole routable fleet is down.
[[nodiscard]] Placement fail_over(const FleetIndex& index, std::size_t target);

class Router {
 public:
  virtual ~Router() = default;

  /// Reset per-episode state before the first pick(); `routable` is the
  /// episode's initial routable node count (ring-based routers size
  /// themselves to it).
  virtual void start(std::size_t routable) { (void)routable; }

  /// The routing rule: the node (in [0, index.routable_count())) that
  /// serves `inv`, reading only `index` and `functions`. The default throws
  /// util::CheckError. It exists only so that decorators which wrap route()
  /// alone stay concrete; it goes once every decorator wraps pick().
  [[nodiscard]] virtual std::size_t pick(const FleetIndex& index,
                                         const sim::FunctionTable& functions,
                                         const sim::Invocation& inv);

  /// FleetEnv::run's per-episode hook: start(fleet.routable_count()).
  virtual void on_episode_start(const FleetEnv& fleet);

  /// FleetEnv::run's per-arrival hook: pick() over the run's index, so it
  /// throws outside FleetEnv::run (FleetEnv::index()).
  [[nodiscard]] virtual std::size_t route(const FleetEnv& fleet,
                                          const sim::Invocation& inv);

  /// True when this policy consults warm-pool state, so the index maintains
  /// its warm side (a key-count diff per node touch that load-only policies
  /// should not pay).
  [[nodiscard]] virtual bool needs_warm_index() const { return false; }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Seeded uniform-random choice over the routable nodes; draws are
/// serialized on the router's mutex.
class RandomRouter final : public Router {
 public:
  explicit RandomRouter(std::uint64_t seed = 1) : seed_(seed), rng_(seed) {}

  void start(std::size_t routable) override;
  [[nodiscard]] std::size_t pick(const FleetIndex& index,
                                 const sim::FunctionTable& functions,
                                 const sim::Invocation& inv) override;
  [[nodiscard]] std::string name() const override { return "Random"; }

 private:
  std::uint64_t seed_;
  std::mutex mutex_;
  util::Rng rng_;
};

/// Cycles through the routable nodes in index order: an atomic cursor,
/// next = (next + 1) % routable, so admitted spares join the cycle.
class RoundRobinRouter final : public Router {
 public:
  void start(std::size_t routable) override;
  [[nodiscard]] std::size_t pick(const FleetIndex& index,
                                 const sim::FunctionTable& functions,
                                 const sim::Invocation& inv) override;
  [[nodiscard]] std::string name() const override { return "Round-Robin"; }

 private:
  std::atomic<std::size_t> next_{0};
};

/// Node with the fewest in-flight executions; ties break to the lowest
/// index, so results are deterministic. Reads FleetIndex::least_outstanding.
class LeastOutstandingRouter final : public Router {
 public:
  [[nodiscard]] std::size_t pick(const FleetIndex& index,
                                 const sim::FunctionTable& functions,
                                 const sim::Invocation& inv) override;
  [[nodiscard]] std::string name() const override {
    return "Least-Outstanding";
  }
};

/// Consistent hashing with virtual nodes over the function image's OS and
/// language package levels. Functions that share an OS + language stack map
/// to the same node (preserving multi-level reuse), a single function type
/// always maps to one node (preserving classic L3 warm starts), and only
/// ~1/N of keys move when the fleet grows by one node. The ring covers the
/// episode's initial routable set and is read-only between start()s.
class ConsistentHashRouter final : public Router {
 public:
  void start(std::size_t routable) override;
  [[nodiscard]] std::size_t pick(const FleetIndex& index,
                                 const sim::FunctionTable& functions,
                                 const sim::Invocation& inv) override;
  [[nodiscard]] std::string name() const override { return "Hash-Affinity"; }

 private:
  /// (hash, node) per virtual node, sorted.
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;
};

/// Routes to the node holding the best Table-I match with the invocation's
/// image, looked up in the warm index from L3 down. Ties break to the node
/// with fewer in-flight executions, then more free pool memory, then the
/// lowest index; with no match anywhere (a fleet-wide cold start), to the
/// least-outstanding node.
class WarmAwareRouter final : public Router {
 public:
  [[nodiscard]] std::size_t pick(const FleetIndex& index,
                                 const sim::FunctionTable& functions,
                                 const sim::Invocation& inv) override;
  [[nodiscard]] bool needs_warm_index() const override { return true; }
  [[nodiscard]] std::string name() const override { return "Warm-Aware"; }
};

/// Health-aware recovery baseline (DESIGN.md §14): wraps any router with a
/// per-node failure-rate tracker. Every pick() folds each node's state, as
/// the index last saw it, into an EWMA — signal 1 while the node is down or
/// its failed-invocation count grew since the last look, 0 otherwise — and
/// when the inner policy picks a node that is down *or* whose EWMA exceeds
/// the threshold, the invocation steers to the healthy routable node with
/// the lowest EWMA (ties: fewer in-flight executions, then lowest index).
/// Crashed and recently-flaky nodes shed load until their EWMA decays,
/// which spreads the recovery cold-start storm instead of replaying it into
/// the node that just rejoined. A pure function of the index: no RNG,
/// deterministic and replayable under SimClock. The inner pick runs before
/// the router's own mutex is taken, so that mutex stays innermost.
class HealthAwareRouter final : public Router {
 public:
  explicit HealthAwareRouter(std::unique_ptr<Router> inner,
                             double alpha = 0.3, double threshold = 0.5);

  void start(std::size_t routable) override;
  [[nodiscard]] std::size_t pick(const FleetIndex& index,
                                 const sim::FunctionTable& functions,
                                 const sim::Invocation& inv) override;
  [[nodiscard]] bool needs_warm_index() const override;
  [[nodiscard]] std::string name() const override;

 private:
  std::unique_ptr<Router> inner_;
  double alpha_;      ///< EWMA smoothing factor, in (0, 1]
  double threshold_;  ///< steer away above this failure rate, in [0, 1]
  std::mutex mutex_;  ///< guards the two vectors below
  std::vector<double> ewma_;  ///< per-node failure-rate estimate
  std::vector<std::size_t> last_failed_;  ///< failed count at last look
};

/// A named router source, so benches can sweep policies the way they sweep
/// systems (each episode gets a fresh router instance).
struct RouterSpec {
  std::string name;
  std::function<std::unique_ptr<Router>()> make;
};

/// The five standard policies. `seed` feeds the random router.
[[nodiscard]] std::vector<RouterSpec> standard_routers(std::uint64_t seed = 1);

/// Wrap a RouterSpec so every produced instance is health-aware (EWMA
/// failure tracking; see HealthAwareRouter).
[[nodiscard]] RouterSpec with_health_aware(RouterSpec spec,
                                           double alpha = 0.3,
                                           double threshold = 0.5);

}  // namespace mlcr::fleet
