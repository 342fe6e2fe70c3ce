#include "faults/injector.hpp"

namespace mlcr::faults {

FaultInjector::FaultInjector(FaultPlan plan, util::Rng stream)
    : plan_(std::move(plan)), stream_(stream) {
  plan_.validate(static_cast<std::size_t>(-1));
}

bool FaultInjector::draw_startup_failure() noexcept {
  return stream_.bernoulli(plan_.startup_failure_prob);
}

bool FaultInjector::draw_repack_failure() noexcept {
  return stream_.bernoulli(plan_.repack_failure_prob);
}

double FaultInjector::draw_backoff(std::size_t failed_attempt) {
  return backoff_s(failed_attempt, stream_.uniform());
}

}  // namespace mlcr::faults
