#include "serve/policy.hpp"

#include "sim/invocation.hpp"
#include "util/check.hpp"

namespace mlcr::serve {

void RandomPolicy::on_episode_start(std::size_t node_count) {
  (void)node_count;
  std::lock_guard lock(mutex_);
  rng_ = util::Rng(seed_);
}

std::size_t RandomPolicy::route(const ShardedFleetIndex& index,
                                const sim::FunctionTable& functions,
                                const sim::Invocation& inv) {
  (void)functions;
  (void)inv;
  const std::size_t n = index.read(
      [](const fleet::FleetIndex& fleet) { return fleet.routable_count(); });
  MLCR_CHECK_MSG(n > 0, "route() over an empty fleet");
  std::lock_guard lock(mutex_);
  return rng_.uniform_index(n);
}

void RoundRobinPolicy::on_episode_start(std::size_t node_count) {
  (void)node_count;
  next_.store(0, std::memory_order_relaxed);
}

std::size_t RoundRobinPolicy::route(const ShardedFleetIndex& index,
                                    const sim::FunctionTable& functions,
                                    const sim::Invocation& inv) {
  (void)functions;
  (void)inv;
  const std::size_t n = index.read(
      [](const fleet::FleetIndex& fleet) { return fleet.routable_count(); });
  MLCR_CHECK_MSG(n > 0, "route() over an empty fleet");
  // fleet::RoundRobinRouter's rule, next = (next + 1) % routable, as one
  // atomic step: admitted spares join the cycle the way they do there.
  std::size_t node = next_.load(std::memory_order_relaxed);
  while (!next_.compare_exchange_weak(node, (node % n + 1) % n,
                                      std::memory_order_relaxed)) {
  }
  return node % n;
}

std::size_t LeastOutstandingPolicy::route(const ShardedFleetIndex& index,
                                          const sim::FunctionTable& functions,
                                          const sim::Invocation& inv) {
  (void)functions;
  (void)inv;
  return index.read(
      [](const fleet::FleetIndex& fleet) { return fleet.least_outstanding(); });
}

HashAffinityPolicy::HashAffinityPolicy(std::size_t virtual_nodes)
    : virtual_nodes_(virtual_nodes) {
  MLCR_CHECK(virtual_nodes_ > 0);
}

void HashAffinityPolicy::on_episode_start(std::size_t node_count) {
  ring_ = fleet::build_hash_ring(node_count, virtual_nodes_);
}

std::size_t HashAffinityPolicy::route(const ShardedFleetIndex& index,
                                      const sim::FunctionTable& functions,
                                      const sim::Invocation& inv) {
  (void)index;
  MLCR_CHECK_MSG(!ring_.empty(), "route() before on_episode_start()");
  return fleet::hash_ring_pick(
      ring_, fleet::affinity_key(functions.get(inv.function).image));
}

std::size_t WarmAwarePolicy::route(const ShardedFleetIndex& index,
                                   const sim::FunctionTable& functions,
                                   const sim::Invocation& inv) {
  const auto& keys = functions.get(inv.function).level_keys;
  return index.read([&](const fleet::FleetIndex& fleet) {
    return fleet::warm_aware_node(fleet, keys);
  });
}

std::vector<PolicySpec> standard_policies(std::uint64_t seed) {
  std::vector<PolicySpec> policies;
  policies.push_back(
      {"Random", [seed] { return std::make_unique<RandomPolicy>(seed); }});
  policies.push_back(
      {"Round-Robin", [] { return std::make_unique<RoundRobinPolicy>(); }});
  policies.push_back(
      {"Least-Outstanding",
       [] { return std::make_unique<LeastOutstandingPolicy>(); }});
  policies.push_back(
      {"Hash-Affinity", [] { return std::make_unique<HashAffinityPolicy>(); }});
  policies.push_back(
      {"Warm-Aware", [] { return std::make_unique<WarmAwarePolicy>(); }});
  return policies;
}

}  // namespace mlcr::serve
