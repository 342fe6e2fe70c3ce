#include "fleet/router.hpp"

#include <algorithm>
#include <optional>

#include "containers/matching.hpp"
#include "fleet/fleet_env.hpp"
#include "fleet/fleet_index.hpp"
#include "util/check.hpp"

namespace mlcr::fleet {

namespace {

/// One splitmix64 pass: a cheap, well-mixed 64-bit hash step.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) noexcept {
  return util::splitmix64(x);
}

}  // namespace

std::size_t warm_aware_node(const FleetIndex& index,
                            const containers::ImageSpec& image) {
  // The warm index maps a level key to the nodes holding a match at >= that
  // level, so the best level is the first non-empty lookup from L3 down. At
  // that level every candidate's best match is exactly the level (a better
  // one would have answered the higher lookup), so only the (busy, free
  // memory, index) tie-break remains.
  for (const containers::MatchLevel level :
       {containers::MatchLevel::kL3, containers::MatchLevel::kL2,
        containers::MatchLevel::kL1}) {
    const auto* candidates = index.nodes_matching(image, level);
    if (candidates == nullptr) continue;
    auto it = candidates->begin();
    std::size_t best = it->first;
    FleetIndex::NodeLoad best_load = index.node_load(best);
    for (++it; it != candidates->end(); ++it) {
      const FleetIndex::NodeLoad load = index.node_load(it->first);
      if (load.busy < best_load.busy ||
          (load.busy == best_load.busy && load.free_mb > best_load.free_mb)) {
        best = it->first;
        best_load = load;
      }
    }
    return best;
  }
  // Fleet-wide cold start: place it where the least work is outstanding.
  return index.least_outstanding();
}

Placement fail_over(const FleetIndex& index, std::size_t target) {
  if (index.node_load(target).up) return {target, false, false};
  const std::optional<std::size_t> best = index.least_outstanding_healthy();
  if (!best) return {target, false, true};
  return {*best, true, false};
}

std::uint64_t affinity_key(const containers::ImageSpec& image) noexcept {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const containers::Level level :
       {containers::Level::kOs, containers::Level::kLanguage})
    for (const containers::PackageId id : image.level(level))
      h = mix(h ^ (static_cast<std::uint64_t>(id) + 1));
  return h;
}

std::vector<HashRingPoint> build_hash_ring(std::size_t nodes,
                                           std::size_t virtual_nodes) {
  MLCR_CHECK(nodes > 0 && virtual_nodes > 0);
  std::vector<HashRingPoint> ring;
  ring.reserve(nodes * virtual_nodes);
  for (std::size_t node = 0; node < nodes; ++node) {
    // Each (node, replica) pair gets a deterministic ring position; the
    // double-mix decorrelates adjacent indices.
    std::uint64_t h = mix(0xF1EE7000ULL + node);
    for (std::size_t v = 0; v < virtual_nodes; ++v) {
      h = mix(h + v + 1);
      ring.push_back({h, node});
    }
  }
  std::sort(ring.begin(), ring.end(),
            [](const HashRingPoint& a, const HashRingPoint& b) {
              if (a.hash != b.hash) return a.hash < b.hash;
              return a.node < b.node;  // deterministic on (improbable) ties
            });
  return ring;
}

std::size_t hash_ring_pick(const std::vector<HashRingPoint>& ring,
                           std::uint64_t key) {
  MLCR_CHECK_MSG(!ring.empty(), "pick on an empty hash ring");
  auto it = std::lower_bound(ring.begin(), ring.end(), key,
                             [](const HashRingPoint& p, std::uint64_t k) {
                               return p.hash < k;
                             });
  if (it == ring.end()) it = ring.begin();
  return it->node;
}

void RandomRouter::on_episode_start(const FleetEnv& fleet) {
  (void)fleet;
  rng_ = util::Rng(seed_);
}

std::size_t RandomRouter::route(const FleetEnv& fleet,
                                const sim::Invocation& inv) {
  (void)inv;
  MLCR_CHECK_MSG(fleet.routable_count() > 0, "route() over an empty fleet");
  return rng_.uniform_index(fleet.routable_count());
}

void RoundRobinRouter::on_episode_start(const FleetEnv& fleet) {
  (void)fleet;
  next_ = 0;
}

std::size_t RoundRobinRouter::route(const FleetEnv& fleet,
                                    const sim::Invocation& inv) {
  (void)inv;
  MLCR_CHECK_MSG(next_ < fleet.routable_count(),
                 "round-robin cursor outside the fleet");
  const std::size_t node = next_;
  next_ = (next_ + 1) % fleet.routable_count();
  return node;
}

std::size_t LeastOutstandingRouter::route(const FleetEnv& fleet,
                                          const sim::Invocation& inv) {
  (void)inv;
  MLCR_CHECK_MSG(fleet.routable_count() > 0, "route() over an empty fleet");
  return fleet.index().least_outstanding();
}

ConsistentHashRouter::ConsistentHashRouter(std::size_t virtual_nodes)
    : virtual_nodes_(virtual_nodes) {
  MLCR_CHECK(virtual_nodes_ > 0);
}

void ConsistentHashRouter::on_episode_start(const FleetEnv& fleet) {
  // The ring covers the episode's initial routable set. Spares admitted
  // mid-episode stay off the ring — affinity keys keep their mapping and
  // spares absorb traffic through failover / least-outstanding paths.
  ring_ = build_hash_ring(fleet.routable_count(), virtual_nodes_);
}

std::size_t ConsistentHashRouter::route(const FleetEnv& fleet,
                                        const sim::Invocation& inv) {
  MLCR_CHECK_MSG(!ring_.empty(), "route() before on_episode_start()");
  return hash_ring_pick(ring_,
                        affinity_key(fleet.functions().get(inv.function).image));
}

std::size_t WarmAwareRouter::route(const FleetEnv& fleet,
                                   const sim::Invocation& inv) {
  MLCR_CHECK_MSG(fleet.routable_count() > 0, "route() over an empty fleet");
  return warm_aware_node(fleet.index(),
                         fleet.functions().get(inv.function).image);
}

HealthAwareRouter::HealthAwareRouter(std::unique_ptr<Router> inner,
                                     double alpha, double threshold)
    : inner_(std::move(inner)), alpha_(alpha), threshold_(threshold) {
  MLCR_CHECK(inner_ != nullptr);
  MLCR_CHECK_MSG(alpha_ > 0.0 && alpha_ <= 1.0,
                 "EWMA smoothing factor must be in (0, 1], got " << alpha_);
  MLCR_CHECK_MSG(threshold_ >= 0.0 && threshold_ <= 1.0,
                 "failure-rate threshold must be in [0, 1], got "
                     << threshold_);
}

void HealthAwareRouter::on_episode_start(const FleetEnv& fleet) {
  inner_->on_episode_start(fleet);
  ewma_.assign(fleet.node_count(), 0.0);
  last_failed_.assign(fleet.node_count(), 0);
}

void HealthAwareRouter::observe(const FleetEnv& fleet) {
  // One EWMA step per route() call, over every node (spares included, so
  // their signal is current the moment they become routable). The failure
  // signal is 1 while the node is down or failed an invocation since the
  // last observation, 0 otherwise — all read from deterministic simulator
  // state, so the router is replayable under SimClock.
  for (std::size_t i = 0; i < fleet.node_count(); ++i) {
    const std::size_t failed = fleet.node(i).metrics().failed_count();
    const double signal =
        (!fleet.node_up(i) || failed > last_failed_[i]) ? 1.0 : 0.0;
    ewma_[i] = alpha_ * signal + (1.0 - alpha_) * ewma_[i];
    last_failed_[i] = failed;
  }
}

std::size_t HealthAwareRouter::route(const FleetEnv& fleet,
                                     const sim::Invocation& inv) {
  MLCR_CHECK_MSG(ewma_.size() == fleet.node_count(),
                 "route() before on_episode_start()");
  observe(fleet);
  const std::size_t target = inner_->route(fleet, inv);
  MLCR_CHECK_MSG(target < fleet.routable_count(),
                 "inner router picked an invalid node");
  if (fleet.node_up(target) && ewma_[target] <= threshold_) return target;
  // Steer to the healthy routable node with the lowest failure EWMA; ties
  // break to fewer in-flight executions, then the lowest index.
  std::size_t best = fleet.routable_count();
  for (std::size_t i = 0; i < fleet.routable_count(); ++i) {
    if (!fleet.node_up(i)) continue;
    if (best == fleet.routable_count()) {
      best = i;
      continue;
    }
    if (ewma_[i] < ewma_[best] ||
        (ewma_[i] == ewma_[best] &&
         fleet.node(i).busy_count() < fleet.node(best).busy_count()))
      best = i;
  }
  // Whole routable fleet down: return the inner choice; FleetEnv::run()
  // counts the invocation as lost.
  if (best == fleet.routable_count()) return target;
  return best;
}

bool HealthAwareRouter::needs_warm_index() const {
  return inner_->needs_warm_index();
}

std::string HealthAwareRouter::name() const {
  return "Health-Aware(" + inner_->name() + ")";
}

std::vector<RouterSpec> standard_routers(std::uint64_t seed) {
  std::vector<RouterSpec> routers;
  routers.push_back(
      {"Random", [seed] { return std::make_unique<RandomRouter>(seed); }});
  routers.push_back(
      {"Round-Robin", [] { return std::make_unique<RoundRobinRouter>(); }});
  routers.push_back({"Least-Outstanding",
                     [] { return std::make_unique<LeastOutstandingRouter>(); }});
  routers.push_back({"Hash-Affinity",
                     [] { return std::make_unique<ConsistentHashRouter>(); }});
  routers.push_back(
      {"Warm-Aware", [] { return std::make_unique<WarmAwareRouter>(); }});
  return routers;
}

RouterSpec with_health_aware(RouterSpec spec, double alpha, double threshold) {
  RouterSpec wrapped;
  wrapped.name = "Health-Aware(" + spec.name + ")";
  wrapped.make = [make = std::move(spec.make), alpha, threshold] {
    return std::make_unique<HealthAwareRouter>(make(), alpha, threshold);
  };
  return wrapped;
}

}  // namespace mlcr::fleet
