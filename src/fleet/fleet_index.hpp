// Incrementally maintained fleet-wide routing state (DESIGN.md §10). The
// event-driven FleetEnv::run keeps one FleetIndex current so routers that
// need cluster-wide views — least-outstanding load, warm-pool match lookup,
// per-node health and failures, the failover rule — read it in O(log nodes)
// instead of rescanning every node per invocation. Every fleet::Router
// reads only this index (Router::pick). The serving layer keeps one too,
// behind a lock (serve::ShardedFleetIndex), and hosts the same routers over
// it.
//
// Two structures:
//   Load index  — ordered (busy_count, node) sets over all nodes and over
//                 healthy nodes only. The minimum element is the node with
//                 the fewest in-flight executions, lowest index on ties.
//   Warm index  — per match level ℓ, a vector indexed by interned level key
//                 (containers::LevelKey) listing, in ascending node order,
//                 the nodes holding idle containers with that key and how
//                 many. sim::FunctionTable interns each function image's
//                 L1, L1+L2 and L1+L2+L3 package prefixes once, comparing
//                 package lists, so key equality is exactly Table-I
//                 level-by-level set equality: a container matches a
//                 function at level >= ℓ iff their level-ℓ keys are equal.
//                 No hashing, no collisions, no strings.
//
// The counts live in the pools: containers carry their keys, and each
// containers::WarmPool keeps per-level (key, count) lists current on every
// admission, take, eviction, expiry and crash. update() merge-diffs a
// node's lists against the copy it took last time and touches only the
// keys whose counts changed; it never walks or sorts a pool.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "containers/matching.hpp"
#include "containers/pool.hpp"

namespace mlcr::sim {
class ClusterEnv;
}

namespace mlcr::fleet {

class FleetIndex {
 public:
  /// `track_warm` enables the warm index; without it update() skips the
  /// per-pool key diff (routers that never consult warm state should not
  /// pay for it — see Router::needs_warm_index()).
  FleetIndex(std::size_t nodes, bool track_warm);

  /// Re-derive node `node`'s contributions from its environment. Called by
  /// the fleet after every event that touches the node (offer/step,
  /// completion drain, TTL expiry, crash, recover). Cost: O(log nodes) for
  /// the load sets plus, when tracking warm state, one merge pass over the
  /// node's key-count lists and O(nodes holding the key) per changed key.
  void update(std::size_t node, const sim::ClusterEnv& env);

  /// Include/exclude node `node` from the load minima. Non-routable nodes
  /// (cold spares awaiting a crash event, DESIGN.md §14) are still
  /// update()d but never surfaced by the least_outstanding lookups. Every
  /// node starts routable.
  void set_routable(std::size_t node, bool routable);

  /// Node with the fewest in-flight executions over all *routable* nodes
  /// (down nodes included), lowest index on ties — LeastOutstandingRouter
  /// and WarmAwareRouter's cold fallback.
  [[nodiscard]] std::size_t least_outstanding() const;

  /// Same, restricted to healthy routable nodes; nullopt when the whole
  /// routable fleet is down. Read by the failover rule, fleet::fail_over.
  [[nodiscard]] std::optional<std::size_t> least_outstanding_healthy() const;

  /// Per-node snapshot of the last update(): in-flight executions, health,
  /// free pool memory and failed invocations so far this episode — the
  /// inputs of the warm-aware tie-break, the failover check and the
  /// health-aware EWMA, so routing reads only the index, never an env.
  struct NodeLoad {
    std::size_t busy = 0;
    bool up = true;
    double free_mb = 0.0;
    std::size_t failed = 0;
  };
  [[nodiscard]] NodeLoad node_load(std::size_t node) const;

  [[nodiscard]] bool tracks_warm() const noexcept { return track_warm_; }
  /// Every node, routable or not.
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  /// Nodes currently routable (see set_routable). The routable set is a
  /// prefix of the fleet, so policies that pick a node without reading load
  /// or warm state (Random, Round-Robin) draw over [0, routable_count()).
  [[nodiscard]] std::size_t routable_count() const noexcept {
    return routable_count_;
  }

  /// How many idle containers with one level key a node holds.
  struct NodeCount {
    std::size_t node = 0;
    std::size_t count = 0;

    [[nodiscard]] bool operator==(const NodeCount&) const noexcept = default;
  };

  /// Nodes holding at least one idle container matching a function with
  /// interned prefixes `keys` at level >= `level`, in ascending node order
  /// with their container counts, or nullptr when no node has such a
  /// match. Requires tracks_warm().
  [[nodiscard]] const std::vector<NodeCount>* nodes_matching(
      const containers::LevelKeys& keys, containers::MatchLevel level) const;

  /// Invariant auditor: the warm map holds exactly the union of the
  /// per-node key-count copies. Throws util::CheckError on violation. Runs
  /// after every update() in audit-enabled builds (see util/audit.hpp).
  void audit() const;

 private:
  struct NodeEntry {
    std::size_t busy = 0;
    bool up = true;
    double free_mb = 0.0;
    std::size_t failed = 0;
    bool in_load = false;   ///< false until the first update()
    bool routable = true;   ///< excluded from the load sets when false
    /// The pool's key counts as of the last update(), one list per level.
    std::array<std::vector<containers::KeyCount>, containers::kNumLevels>
        keys;
  };

  /// Set `node`'s count for level `l`'s `key` (0 removes the node).
  void set_count(std::size_t l, containers::LevelKey key, std::size_t node,
                 std::size_t count);

  bool track_warm_;
  std::vector<NodeEntry> nodes_;
  std::size_t routable_count_;
  std::set<std::pair<std::size_t, std::size_t>> load_all_;
  std::set<std::pair<std::size_t, std::size_t>> load_healthy_;
  /// level -> key -> nodes holding it, ascending by node.
  std::array<std::vector<std::vector<NodeCount>>, containers::kNumLevels>
      warm_;
};

}  // namespace mlcr::fleet
