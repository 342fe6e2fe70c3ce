// Routing policies for the concurrent scheduler service. A RoutePolicy picks
// the node that serves a request from the service's locked index. Every
// routing rule is a fleet::Router, written once over a const FleetIndex&
// (fleet/router.hpp); RouterPolicy hosts any of them by running its pick()
// under the index's shared lock, so over an up-to-date index each hosted
// router picks the node it picks inside FleetEnv::run — the bit-identity
// the golden replay tests pin. route() may be called from many worker
// threads at once; a hosted router guards its own state (see router.hpp),
// and its mutex is the only lock taken under the index lock.
#pragma once

#include <memory>
#include <string>

#include "fleet/router.hpp"
#include "serve/sharded_index.hpp"
#include "sim/invocation.hpp"

namespace mlcr::sim {
class FunctionTable;
}

namespace mlcr::serve {

class RoutePolicy {
 public:
  virtual ~RoutePolicy() = default;

  /// Called once per service episode, before the first route(), with the
  /// episode's initial routable node count; resets per-episode state and
  /// lets ring-based policies size themselves.
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

/// Hosts a fleet::Router in the service: on_episode_start() is its start(),
/// and route() is its pick() under the index's shared lock.
class RouterPolicy : public RoutePolicy {
 public:
  explicit RouterPolicy(std::unique_ptr<fleet::Router> router);

  void on_episode_start(std::size_t node_count) override;
  [[nodiscard]] std::size_t route(const ShardedFleetIndex& index,
                                  const sim::FunctionTable& functions,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] bool needs_warm_index() const override;
  [[nodiscard]] std::string name() const override;

 private:
  std::unique_ptr<fleet::Router> router_;
};

/// fleet::RoundRobinRouter, hosted.
class RoundRobinPolicy final : public RouterPolicy {
 public:
  RoundRobinPolicy();
};

}  // namespace mlcr::serve
