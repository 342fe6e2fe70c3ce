// Front-end request routing for a multi-node fleet. The router decides
// *which node* sees an invocation before that node's own scheduler decides
// *which container* serves it — at cluster scale this placement step
// dominates cold-start outcomes, because a warm container on the wrong node
// is worth nothing.
//
// Five policies:
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
//
// Least-Outstanding and Warm-Aware read FleetEnv::index(), so they route
// only inside FleetEnv::run (elsewhere index() throws CheckError).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/invocation.hpp"
#include "util/rng.hpp"

namespace mlcr::containers {
class ImageSpec;
}

namespace mlcr::fleet {

class FleetEnv;
class FleetIndex;

/// Hash of the OS + language package lists of an image: the affinity key of
/// ConsistentHashRouter. The runtime level is deliberately excluded so that
/// functions differing only in their runtime packages still colocate (and
/// can serve each other at Table-I L2). Shared with the serving layer's
/// HashAffinityPolicy so live routing and replay agree bit-for-bit.
[[nodiscard]] std::uint64_t affinity_key(
    const containers::ImageSpec& image) noexcept;

/// One virtual node on the consistent-hash ring.
struct HashRingPoint {
  std::uint64_t hash = 0;
  std::size_t node = 0;
};

/// Build the sorted ring of `nodes` x `virtual_nodes` deterministic points —
/// the per-episode state of ConsistentHashRouter, factored out so the
/// serving layer constructs the identical ring.
[[nodiscard]] std::vector<HashRingPoint> build_hash_ring(
    std::size_t nodes, std::size_t virtual_nodes);

/// First ring point clockwise of `key` (wrapping). Requires a non-empty
/// sorted ring.
[[nodiscard]] std::size_t hash_ring_pick(
    const std::vector<HashRingPoint>& ring, std::uint64_t key);

/// Warm-Aware placement over the index: the node holding the best Table-I
/// match for `image` (L3 down to L1); ties break to fewer in-flight
/// executions, then more free pool memory, then the lowest index; with no
/// match anywhere (a fleet-wide cold start), index.least_outstanding(). The
/// one implementation behind WarmAwareRouter and serve::WarmAwarePolicy.
/// Requires index.tracks_warm().
[[nodiscard]] std::size_t warm_aware_node(const FleetIndex& index,
                                          const containers::ImageSpec& image);

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

  /// Called once per episode, before the first route(); resets per-episode
  /// state and lets ring-based routers size themselves to the fleet.
  virtual void on_episode_start(const FleetEnv& fleet) { (void)fleet; }

  /// Pick the node (in [0, fleet.node_count())) that serves `inv`.
  [[nodiscard]] virtual std::size_t route(const FleetEnv& fleet,
                                          const sim::Invocation& inv) = 0;

  /// True when this policy consults warm-pool state, so FleetEnv::run
  /// maintains the FleetIndex's warm side (an O(pool) recompute per node
  /// touch that load-only policies should not pay).
  [[nodiscard]] virtual bool needs_warm_index() const { return false; }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Seeded uniform-random node choice.
class RandomRouter final : public Router {
 public:
  explicit RandomRouter(std::uint64_t seed = 1) : seed_(seed), rng_(seed) {}

  void on_episode_start(const FleetEnv& fleet) override;
  [[nodiscard]] std::size_t route(const FleetEnv& fleet,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] std::string name() const override { return "Random"; }

 private:
  std::uint64_t seed_;
  util::Rng rng_;
};

/// Cycles through nodes in index order.
class RoundRobinRouter final : public Router {
 public:
  void on_episode_start(const FleetEnv& fleet) override;
  [[nodiscard]] std::size_t route(const FleetEnv& fleet,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] std::string name() const override { return "Round-Robin"; }

 private:
  std::size_t next_ = 0;
};

/// Node with the fewest in-flight executions; ties break to the lowest
/// index, so results are deterministic. Reads FleetIndex::least_outstanding.
class LeastOutstandingRouter final : public Router {
 public:
  [[nodiscard]] std::size_t route(const FleetEnv& fleet,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] std::string name() const override {
    return "Least-Outstanding";
  }
};

/// Consistent hashing with virtual nodes over the function image's OS and
/// language package levels. Functions that share an OS + language stack map
/// to the same node (preserving multi-level reuse), a single function type
/// always maps to one node (preserving classic L3 warm starts), and only
/// ~1/N of keys move when the fleet grows by one node.
class ConsistentHashRouter final : public Router {
 public:
  explicit ConsistentHashRouter(std::size_t virtual_nodes = 64);

  void on_episode_start(const FleetEnv& fleet) override;
  [[nodiscard]] std::size_t route(const FleetEnv& fleet,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] std::string name() const override { return "Hash-Affinity"; }

 private:
  std::size_t virtual_nodes_;
  std::vector<HashRingPoint> ring_;  ///< sorted by hash
};

/// Routes to the node holding the best Table-I match with the invocation's
/// image: warm_aware_node over FleetEnv::index(). Ties break to the node
/// with fewer in-flight executions, then more free pool memory, then the
/// lowest index; with no match anywhere (a fleet-wide cold start), to the
/// least-outstanding node.
class WarmAwareRouter final : public Router {
 public:
  [[nodiscard]] std::size_t route(const FleetEnv& fleet,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] bool needs_warm_index() const override { return true; }
  [[nodiscard]] std::string name() const override { return "Warm-Aware"; }
};

/// Health-aware recovery baseline (DESIGN.md §14): wraps any router with a
/// per-node failure-rate tracker. Every route() observation folds each
/// node's state into an EWMA — signal 1 while the node is down or it failed
/// an invocation since the last look, 0 otherwise — and when the inner
/// policy picks a node that is down *or* whose EWMA exceeds the threshold,
/// the invocation steers to the healthy routable node with the lowest EWMA
/// (ties: fewer in-flight executions, then lowest index). Crashed and
/// recently-flaky nodes shed load until their EWMA decays, which spreads
/// the recovery cold-start storm instead of replaying it into the node
/// that just rejoined. Purely a function of observed simulator state: no
/// RNG, deterministic and replayable under SimClock.
class HealthAwareRouter final : public Router {
 public:
  explicit HealthAwareRouter(std::unique_ptr<Router> inner,
                             double alpha = 0.3, double threshold = 0.5);

  void on_episode_start(const FleetEnv& fleet) override;
  [[nodiscard]] std::size_t route(const FleetEnv& fleet,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] bool needs_warm_index() const override;
  [[nodiscard]] std::string name() const override;

 private:
  /// Fold the fleet's current health into the per-node EWMAs.
  void observe(const FleetEnv& fleet);

  std::unique_ptr<Router> inner_;
  double alpha_;      ///< EWMA smoothing factor, in (0, 1]
  double threshold_;  ///< steer away above this failure rate, in [0, 1]
  std::vector<double> ewma_;  ///< per-node failure-rate estimate
  std::vector<std::size_t> last_failed_;  ///< failed_count() at last look
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
