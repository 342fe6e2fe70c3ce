#include "fleet/fleet_index.hpp"

#include "sim/env.hpp"
#include "util/check.hpp"

namespace mlcr::fleet {

namespace {

/// Match levels in ImageSpec level order: kL1 is the OS prefix, kL2 adds
/// language, kL3 adds runtime.
constexpr std::array<containers::MatchLevel, 3> kMatchLevels = {
    containers::MatchLevel::kL1, containers::MatchLevel::kL2,
    containers::MatchLevel::kL3};

[[nodiscard]] std::size_t level_index(containers::MatchLevel level) {
  MLCR_CHECK(containers::reusable(level));
  return static_cast<std::size_t>(level) - 1;
}

}  // namespace

std::string FleetIndex::level_key(const containers::ImageSpec& image,
                                  containers::MatchLevel level) {
  std::string key;
  for (std::size_t l = 0; l <= level_index(level); ++l) {
    if (l > 0) key += '|';
    const auto& packages = image.level(static_cast<containers::Level>(l));
    for (std::size_t i = 0; i < packages.size(); ++i) {
      if (i > 0) key += ',';
      key += std::to_string(packages[i]);
    }
  }
  return key;
}

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
  entry.in_load = true;

  if (!track_warm_) return;
  std::array<std::map<std::string, std::size_t>, 3> fresh;
  for (const containers::Container* c : env.pool().idle_containers())
    for (std::size_t l = 0; l < kMatchLevels.size(); ++l)
      ++fresh[l][level_key(c->image, kMatchLevels[l])];
  for (std::size_t l = 0; l < kMatchLevels.size(); ++l) {
    if (fresh[l] == entry.keys[l]) continue;
    for (const auto& [key, count] : entry.keys[l]) {
      auto it = warm_[l].find(key);
      MLCR_CHECK(it != warm_[l].end());
      it->second.erase(node);
      if (it->second.empty()) warm_[l].erase(it);
      (void)count;
    }
    for (const auto& [key, count] : fresh[l]) warm_[l][key][node] = count;
    entry.keys[l] = fresh[l];
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
  return {entry.busy, entry.up, entry.free_mb};
}

const std::map<std::size_t, std::size_t>* FleetIndex::nodes_matching(
    const containers::ImageSpec& image, containers::MatchLevel level) const {
  MLCR_CHECK_MSG(track_warm_, "warm lookup on a load-only index");
  const auto& by_key = warm_[level_index(level)];
  const auto it = by_key.find(level_key(image, level));
  if (it == by_key.end()) return nullptr;
  return &it->second;
}

}  // namespace mlcr::fleet
