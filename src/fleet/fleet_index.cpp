#include "fleet/fleet_index.hpp"

#include <algorithm>

#include "sim/env.hpp"
#include "util/audit.hpp"
#include "util/check.hpp"

namespace mlcr::fleet {

namespace {

/// Index of `level`'s key in a containers::LevelKeys: kL1 -> 0 (the OS
/// prefix), kL2 -> 1, kL3 -> 2.
[[nodiscard]] std::size_t level_index(containers::MatchLevel level) {
  MLCR_CHECK(containers::reusable(level));
  return static_cast<std::size_t>(level) - 1;
}

}  // namespace

FleetIndex::FleetIndex(std::size_t nodes, bool track_warm)
    : track_warm_(track_warm), nodes_(nodes), routable_count_(nodes) {
  MLCR_CHECK(nodes > 0);
}

void FleetIndex::update(std::size_t node, const sim::ClusterEnv& env) {
  MLCR_CHECK(node < nodes_.size());
  NodeEntry& entry = nodes_[node];

  const std::size_t busy = env.busy_count();
  const bool up = !env.down();
  if (entry.in_load && entry.routable) {
    load_all_.erase({entry.busy, node});
    if (entry.up) load_healthy_.erase({entry.busy, node});
  }
  if (entry.routable) {
    load_all_.insert({busy, node});
    if (up) load_healthy_.insert({busy, node});
  }
  entry.busy = busy;
  entry.up = up;
  // A crashed node keeps its last free_mb reading: its pool object survives
  // the crash (emptied, not destroyed), and routers never consult down
  // nodes' memory anyway.
  entry.free_mb = env.pool().free_mb();
  entry.failed = env.metrics().failed_count();
  entry.in_load = true;

  if (!track_warm_) return;
  for (std::size_t l = 0; l < containers::kNumLevels; ++l) {
    const std::vector<containers::KeyCount>& fresh = env.pool().key_counts(l);
    std::vector<containers::KeyCount>& last = entry.keys[l];
    if (fresh == last) continue;
    // Merge the two ascending lists: keys only in `last` leave the node,
    // keys only in `fresh` or with a changed count are (re)set.
    auto was = last.begin();
    auto now = fresh.begin();
    while (was != last.end() || now != fresh.end()) {
      if (now == fresh.end() || (was != last.end() && was->key < now->key)) {
        set_count(l, was->key, node, 0);
        ++was;
      } else if (was == last.end() || now->key < was->key) {
        set_count(l, now->key, node, now->count);
        ++now;
      } else {
        if (was->count != now->count)
          set_count(l, now->key, node, now->count);
        ++was;
        ++now;
      }
    }
    last = fresh;
  }
  MLCR_AUDIT_POINT(audit());
}

void FleetIndex::set_count(std::size_t l, containers::LevelKey key,
                           std::size_t node, std::size_t count) {
  if (key >= warm_[l].size()) warm_[l].resize(std::size_t{key} + 1);
  std::vector<NodeCount>& holders = warm_[l][key];
  const auto it = std::lower_bound(
      holders.begin(), holders.end(), node,
      [](const NodeCount& h, std::size_t n) { return h.node < n; });
  const bool present = it != holders.end() && it->node == node;
  if (count == 0) {
    MLCR_CHECK_MSG(present, "node " << node << " never held level " << l
                                    << " key " << key);
    holders.erase(it);
  } else if (present) {
    it->count = count;
  } else {
    holders.insert(it, NodeCount{node, count});
  }
}

void FleetIndex::set_routable(std::size_t node, bool routable) {
  MLCR_CHECK(node < nodes_.size());
  NodeEntry& entry = nodes_[node];
  if (entry.routable == routable) return;
  entry.routable = routable;
  if (routable)
    ++routable_count_;
  else
    --routable_count_;
  if (!entry.in_load) return;
  if (routable) {
    load_all_.insert({entry.busy, node});
    if (entry.up) load_healthy_.insert({entry.busy, node});
  } else {
    load_all_.erase({entry.busy, node});
    if (entry.up) load_healthy_.erase({entry.busy, node});
  }
}

std::size_t FleetIndex::least_outstanding() const {
  MLCR_CHECK_MSG(!load_all_.empty(),
                 "least_outstanding() before any update()");
  return load_all_.begin()->second;
}

std::optional<std::size_t> FleetIndex::least_outstanding_healthy() const {
  if (load_healthy_.empty()) return std::nullopt;
  return load_healthy_.begin()->second;
}

FleetIndex::NodeLoad FleetIndex::node_load(std::size_t node) const {
  MLCR_CHECK(node < nodes_.size());
  const NodeEntry& entry = nodes_[node];
  return {entry.busy, entry.up, entry.free_mb, entry.failed};
}

const std::vector<FleetIndex::NodeCount>* FleetIndex::nodes_matching(
    const containers::LevelKeys& keys, containers::MatchLevel level) const {
  MLCR_CHECK_MSG(track_warm_, "warm lookup on a load-only index");
  const std::size_t l = level_index(level);
  const containers::LevelKey key = keys[l];
  if (key >= warm_[l].size() || warm_[l][key].empty()) return nullptr;
  return &warm_[l][key];
}

void FleetIndex::audit() const {
  for (std::size_t l = 0; l < containers::kNumLevels; ++l) {
    std::vector<std::vector<NodeCount>> expected(warm_[l].size());
    for (std::size_t node = 0; node < nodes_.size(); ++node)
      for (const containers::KeyCount& kc : nodes_[node].keys[l]) {
        MLCR_CHECK_MSG(kc.key < expected.size(),
                       "node " << node << " level " << l << " key " << kc.key
                               << " is missing from the warm map");
        expected[kc.key].push_back({node, kc.count});
      }
    MLCR_CHECK_MSG(warm_[l] == expected,
                   "level " << l
                            << " warm map differs from the per-node counts");
  }
}

}  // namespace mlcr::fleet
