// Routing policies for the concurrent scheduler service. Each is the
// serving-side host of a fleet::Router policy: it reads the service's
// locked index instead of the FleetEnv, and the index-reading policies call
// the fleet's own code (FleetIndex::least_outstanding, fleet::
// warm_aware_node), so over an up-to-date index every policy picks the same
// node its fleet router would — the bit-identity the deterministic-replay
// tests pin. route() must be safe to call from many worker threads at once
// (stateful policies guard their own state).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fleet/router.hpp"
#include "serve/sharded_index.hpp"
#include "sim/invocation.hpp"
#include "util/rng.hpp"

namespace mlcr::sim {
class FunctionTable;
}

namespace mlcr::serve {

class RoutePolicy {
 public:
  virtual ~RoutePolicy() = default;

  /// Called once per service episode, before the first route(); resets
  /// per-episode state and lets ring-based policies size themselves.
  virtual void on_episode_start(std::size_t node_count) { (void)node_count; }

  /// Pick the node (in [0, index routable_count())) that serves `inv`. May
  /// be called concurrently from any worker thread.
  [[nodiscard]] virtual std::size_t route(const ShardedFleetIndex& index,
                                          const sim::FunctionTable& functions,
                                          const sim::Invocation& inv) = 0;

  /// True when this policy consults warm-pool state, so the service
  /// maintains the index's warm side (see fleet::Router::needs_warm_index).
  [[nodiscard]] virtual bool needs_warm_index() const { return false; }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Seeded uniform-random choice over the routable nodes; draws are
/// serialized on a mutex, so under single-threaded replay the stream
/// matches fleet::RandomRouter.
class RandomPolicy final : public RoutePolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed = 1) : seed_(seed), rng_(seed) {}

  void on_episode_start(std::size_t node_count) override;
  [[nodiscard]] std::size_t route(const ShardedFleetIndex& index,
                                  const sim::FunctionTable& functions,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] std::string name() const override { return "Random"; }

 private:
  std::uint64_t seed_;
  std::mutex mutex_;
  util::Rng rng_;
};

/// Cycles through the routable nodes in index order (atomic cursor, the
/// fleet::RoundRobinRouter rule).
class RoundRobinPolicy final : public RoutePolicy {
 public:
  void on_episode_start(std::size_t node_count) override;
  [[nodiscard]] std::size_t route(const ShardedFleetIndex& index,
                                  const sim::FunctionTable& functions,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] std::string name() const override { return "Round-Robin"; }

 private:
  std::atomic<std::size_t> next_{0};
};

/// Node with the fewest in-flight executions (lowest index on ties):
/// FleetIndex::least_outstanding under the index's shared lock.
class LeastOutstandingPolicy final : public RoutePolicy {
 public:
  [[nodiscard]] std::size_t route(const ShardedFleetIndex& index,
                                  const sim::FunctionTable& functions,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] std::string name() const override {
    return "Least-Outstanding";
  }
};

/// Consistent hashing on the image's OS + language levels — the identical
/// ring and key as fleet::ConsistentHashRouter (shared helpers). Routing is
/// a pure read of the per-episode ring: no locks, no index access — the
/// fastest policy in bench/serve_throughput.
class HashAffinityPolicy final : public RoutePolicy {
 public:
  explicit HashAffinityPolicy(std::size_t virtual_nodes = 64);

  void on_episode_start(std::size_t node_count) override;
  [[nodiscard]] std::size_t route(const ShardedFleetIndex& index,
                                  const sim::FunctionTable& functions,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] std::string name() const override { return "Hash-Affinity"; }

 private:
  std::size_t virtual_nodes_;
  std::vector<fleet::HashRingPoint> ring_;  ///< rebuilt per episode
};

/// Best Table-I match across the fleet: fleet::warm_aware_node — the same
/// code as fleet::WarmAwareRouter's index path — under the index's shared
/// lock.
class WarmAwarePolicy final : public RoutePolicy {
 public:
  [[nodiscard]] std::size_t route(const ShardedFleetIndex& index,
                                  const sim::FunctionTable& functions,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] bool needs_warm_index() const override { return true; }
  [[nodiscard]] std::string name() const override { return "Warm-Aware"; }
};

/// A named policy source (fresh instance per episode), mirroring
/// fleet::RouterSpec so benches/tests sweep serving policies the same way.
struct PolicySpec {
  std::string name;
  std::function<std::unique_ptr<RoutePolicy>()> make;
};

/// The five standard policies, named identically to fleet::standard_routers
/// (`seed` feeds the random policy).
[[nodiscard]] std::vector<PolicySpec> standard_policies(std::uint64_t seed = 1);

}  // namespace mlcr::serve
