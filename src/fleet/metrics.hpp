// Fleet-wide metrics: the cluster-level summary FleetEnv::finish_episode
// folds from the nodes' own counts (total/average startup latency, cold
// starts, warm starts by Table-I level, aggregate pool memory) plus per-node
// breakdowns and routing-balance measures. The per-invocation records stay
// in each node's collector (FleetEnv::node(i).metrics()); the fleet keeps no
// second copy.
#pragma once

#include <string>
#include <vector>

#include "policies/runner.hpp"

namespace mlcr::fleet {

/// Cluster-level episode result.
struct FleetSummary {
  std::string router;  ///< routing policy that produced the assignment
  std::string system;  ///< per-node scheduler system (e.g. "Greedy-Match")
  std::size_t nodes = 0;

  /// Fleet-wide totals. Latency/cold/warm fields are sums over nodes;
  /// peak_pool_mb is the sum of per-node peaks (aggregate warm memory);
  /// average_latency_s is total latency over total invocations.
  policies::EpisodeSummary total;

  /// Per-node summaries, indexed by node.
  std::vector<policies::EpisodeSummary> per_node;

  /// Max over nodes of invocations routed there, divided by the balanced
  /// share (total/nodes); 1.0 = perfectly balanced, nodes = all on one node.
  double routing_imbalance = 0.0;

  // Fault-episode accounting (DESIGN.md §9); all 0 on a faultless run.
  /// Invocations dropped because every node was down when they arrived.
  std::size_t lost = 0;
  /// Invocations the fleet re-routed off a crashed target node.
  std::size_t rerouted = 0;
  /// Node crash / recovery events over the episode.
  std::size_t node_crashes = 0;
  std::size_t node_recoveries = 0;
  /// Domain-level crash events (one per correlated (domain, down_at) group
  /// of windows, however many member nodes it hit; DESIGN.md §14).
  std::size_t domain_crashes = 0;
  /// Of node_crashes: partial crashes, where the warm pool survived.
  std::size_t partial_crashes = 0;
  /// Cold spares admitted into the routable set by crash events.
  std::size_t spares_activated = 0;

  /// Fraction of *offered* invocations that were served: lost ones never
  /// reached a node and failed ones died there. 1.0 when nothing was
  /// offered.
  [[nodiscard]] double goodput() const noexcept {
    const std::size_t offered = total.invocations + lost;
    if (offered == 0) return 1.0;
    return static_cast<double>(total.invocations - total.failed) /
           static_cast<double>(offered);
  }
};

}  // namespace mlcr::fleet
