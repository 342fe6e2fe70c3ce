#include "fleet/router.hpp"

#include <algorithm>
#include <optional>

#include "containers/image.hpp"
#include "containers/matching.hpp"
#include "fleet/fleet_env.hpp"
#include "fleet/fleet_index.hpp"
#include "sim/function_type.hpp"
#include "util/check.hpp"

namespace mlcr::fleet {

namespace {

/// Ring positions per node of ConsistentHashRouter.
constexpr std::size_t kVirtualNodes = 64;

/// One splitmix64 pass: a cheap, well-mixed 64-bit hash step.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) noexcept {
  return util::splitmix64(x);
}

/// Hash of the OS + language package lists of an image: the affinity key of
/// ConsistentHashRouter. The runtime level is deliberately excluded so that
/// functions differing only in their runtime packages still colocate (and
/// can serve each other at Table-I L2).
[[nodiscard]] std::uint64_t affinity_key(
    const containers::ImageSpec& image) noexcept {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const containers::Level level :
       {containers::Level::kOs, containers::Level::kLanguage})
    for (const containers::PackageId id : image.level(level))
      h = mix(h ^ (static_cast<std::uint64_t>(id) + 1));
  return h;
}

/// Index of the healthy routable node with the lowest failure EWMA; ties
/// break to fewer in-flight executions, then the lowest index. routable
/// count when the whole routable fleet is down.
[[nodiscard]] std::size_t healthiest(const FleetIndex& index,
                                     const std::vector<double>& ewma) {
  const std::size_t routable = index.routable_count();
  std::size_t best = routable;
  std::size_t best_busy = 0;
  for (std::size_t i = 0; i < routable; ++i) {
    const FleetIndex::NodeLoad load = index.node_load(i);
    if (!load.up) continue;
    if (best == routable || ewma[i] < ewma[best] ||
        (ewma[i] == ewma[best] && load.busy < best_busy)) {
      best = i;
      best_busy = load.busy;
    }
  }
  return best;
}

}  // namespace

Placement fail_over(const FleetIndex& index, std::size_t target) {
  if (index.node_load(target).up) return {target, false, false};
  const std::optional<std::size_t> best = index.least_outstanding_healthy();
  if (!best) return {target, false, true};
  return {*best, true, false};
}

std::size_t Router::pick(const FleetIndex& index,
                         const sim::FunctionTable& functions,
                         const sim::Invocation& inv) {
  (void)index;
  (void)functions;
  (void)inv;
  MLCR_CHECK_MSG(false, name() << " routes only through route(): it has no "
                                  "pick() to host over an index");
  return 0;
}

void Router::on_episode_start(const FleetEnv& fleet) {
  start(fleet.routable_count());
}

std::size_t Router::route(const FleetEnv& fleet, const sim::Invocation& inv) {
  MLCR_CHECK_MSG(fleet.routable_count() > 0, "route() over an empty fleet");
  return pick(fleet.index(), fleet.functions(), inv);
}

void RandomRouter::start(std::size_t routable) {
  (void)routable;
  const std::lock_guard lock(mutex_);
  rng_ = util::Rng(seed_);
}

std::size_t RandomRouter::pick(const FleetIndex& index,
                               const sim::FunctionTable& functions,
                               const sim::Invocation& inv) {
  (void)functions;
  (void)inv;
  const std::size_t routable = index.routable_count();
  MLCR_CHECK_MSG(routable > 0, "pick() over an empty fleet");
  const std::lock_guard lock(mutex_);
  return rng_.uniform_index(routable);
}

void RoundRobinRouter::start(std::size_t routable) {
  (void)routable;
  next_.store(0, std::memory_order_relaxed);
}

std::size_t RoundRobinRouter::pick(const FleetIndex& index,
                                   const sim::FunctionTable& functions,
                                   const sim::Invocation& inv) {
  (void)functions;
  (void)inv;
  const std::size_t routable = index.routable_count();
  MLCR_CHECK_MSG(routable > 0, "pick() over an empty fleet");
  // next = (next + 1) % routable as one atomic step; the modulo also folds
  // a cursor left beyond a smaller routable set back into it.
  std::size_t node = next_.load(std::memory_order_relaxed);
  while (!next_.compare_exchange_weak(node, (node % routable + 1) % routable,
                                      std::memory_order_relaxed)) {
  }
  return node % routable;
}

std::size_t LeastOutstandingRouter::pick(const FleetIndex& index,
                                         const sim::FunctionTable& functions,
                                         const sim::Invocation& inv) {
  (void)functions;
  (void)inv;
  MLCR_CHECK_MSG(index.routable_count() > 0, "pick() over an empty fleet");
  return index.least_outstanding();
}

void ConsistentHashRouter::start(std::size_t routable) {
  // The ring covers the episode's initial routable set. Spares admitted
  // mid-episode stay off the ring — affinity keys keep their mapping and
  // spares absorb traffic through the failover path.
  MLCR_CHECK(routable > 0);
  ring_.clear();
  ring_.reserve(routable * kVirtualNodes);
  for (std::size_t node = 0; node < routable; ++node) {
    // Each (node, replica) pair gets a deterministic ring position; the
    // double-mix decorrelates adjacent indices.
    std::uint64_t h = mix(0xF1EE7000ULL + node);
    for (std::size_t v = 0; v < kVirtualNodes; ++v) {
      h = mix(h + v + 1);
      ring_.emplace_back(h, node);
    }
  }
  // By hash, then node: deterministic on (improbable) hash ties.
  std::sort(ring_.begin(), ring_.end());
}

std::size_t ConsistentHashRouter::pick(const FleetIndex& index,
                                       const sim::FunctionTable& functions,
                                       const sim::Invocation& inv) {
  (void)index;
  MLCR_CHECK_MSG(!ring_.empty(), "pick() before start()");
  const std::uint64_t key = affinity_key(functions.get(inv.function).image);
  // First ring point clockwise of the key, wrapping.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key,
      [](const std::pair<std::uint64_t, std::size_t>& point,
         std::uint64_t k) { return point.first < k; });
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

std::size_t WarmAwareRouter::pick(const FleetIndex& index,
                                  const sim::FunctionTable& functions,
                                  const sim::Invocation& inv) {
  MLCR_CHECK_MSG(index.routable_count() > 0, "pick() over an empty fleet");
  const containers::LevelKeys& keys = functions.get(inv.function).level_keys;
  // The warm index maps a level key to the nodes holding a match at >= that
  // level, so the best level is the first non-empty lookup from L3 down. At
  // that level every candidate's best match is exactly the level (a better
  // one would have answered the higher lookup), so only the (busy, free
  // memory, index) tie-break remains.
  for (const containers::MatchLevel level :
       {containers::MatchLevel::kL3, containers::MatchLevel::kL2,
        containers::MatchLevel::kL1}) {
    const auto* candidates = index.nodes_matching(keys, level);
    if (candidates == nullptr) continue;
    auto it = candidates->begin();
    std::size_t best = it->node;
    FleetIndex::NodeLoad best_load = index.node_load(best);
    for (++it; it != candidates->end(); ++it) {
      const FleetIndex::NodeLoad load = index.node_load(it->node);
      if (load.busy < best_load.busy ||
          (load.busy == best_load.busy && load.free_mb > best_load.free_mb)) {
        best = it->node;
        best_load = load;
      }
    }
    return best;
  }
  // Fleet-wide cold start: place it where the least work is outstanding.
  return index.least_outstanding();
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

void HealthAwareRouter::start(std::size_t routable) {
  inner_->start(routable);
  const std::lock_guard lock(mutex_);
  ewma_.clear();  // sized to the index on the first pick()
  last_failed_.clear();
}

std::size_t HealthAwareRouter::pick(const FleetIndex& index,
                                    const sim::FunctionTable& functions,
                                    const sim::Invocation& inv) {
  // The inner rule reads nothing this router writes, so it runs first,
  // outside the mutex.
  const std::size_t target = inner_->pick(index, functions, inv);
  MLCR_CHECK_MSG(target < index.routable_count(),
                 "inner router picked an invalid node");
  const std::lock_guard lock(mutex_);
  const std::size_t nodes = index.node_count();
  if (ewma_.size() != nodes) {
    ewma_.assign(nodes, 0.0);
    last_failed_.assign(nodes, 0);
  }
  // One EWMA step per pick, over every node (spares included, so their
  // signal is current the moment they become routable).
  for (std::size_t i = 0; i < nodes; ++i) {
    const FleetIndex::NodeLoad load = index.node_load(i);
    const double signal = (!load.up || load.failed > last_failed_[i]) ? 1.0
                                                                      : 0.0;
    ewma_[i] = alpha_ * signal + (1.0 - alpha_) * ewma_[i];
    last_failed_[i] = load.failed;
  }
  if (index.node_load(target).up && ewma_[target] <= threshold_)
    return target;
  // Whole routable fleet down: return the inner choice; the failover rule
  // counts the invocation as lost.
  const std::size_t best = healthiest(index, ewma_);
  return best == index.routable_count() ? target : best;
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
