#include "serve/policy.hpp"

#include <utility>

#include "util/check.hpp"

namespace mlcr::serve {

RouterPolicy::RouterPolicy(std::unique_ptr<fleet::Router> router)
    : router_(std::move(router)) {
  MLCR_CHECK(router_ != nullptr);
}

void RouterPolicy::on_episode_start(std::size_t node_count) {
  router_->start(node_count);
}

std::size_t RouterPolicy::route(const ShardedFleetIndex& index,
                                const sim::FunctionTable& functions,
                                const sim::Invocation& inv) {
  return index.read([&](const fleet::FleetIndex& fleet) {
    return router_->pick(fleet, functions, inv);
  });
}

bool RouterPolicy::needs_warm_index() const {
  return router_->needs_warm_index();
}

std::string RouterPolicy::name() const { return router_->name(); }

RoundRobinPolicy::RoundRobinPolicy()
    : RouterPolicy(std::make_unique<fleet::RoundRobinRouter>()) {}

}  // namespace mlcr::serve
