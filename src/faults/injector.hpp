// FaultInjector: the only source of fault randomness. It owns a util::Rng
// stream split() off the episode seed (never a literal seed — the
// fault-rng-stream simlint rule enforces this) and draws every fault
// decision from it in a fixed order, so the stream position — and therefore
// every injected fault — is a pure function of (plan, stream, episode).
//
// The injector is passive: it only draws. The ClusterEnv / FleetEnv act
// (destroy containers, back off, re-route), trace and count: retries and
// failed invocations in sim::MetricsCollector, crashes per episode in
// ClusterEnv::crash_count(), fleet transitions in FleetEnv::FaultCounts.
// It depends only on src/util, so src/faults sits below the simulator in
// the layer graph.
#pragma once

#include <cstdint>

#include "faults/fault_plan.hpp"
#include "util/rng.hpp"

namespace mlcr::faults {

class FaultInjector {
 public:
  /// `stream` must be split() off the episode seed by the caller.
  FaultInjector(FaultPlan plan, util::Rng stream);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Bernoulli draw: does this cold/repack start fail?
  [[nodiscard]] bool draw_startup_failure() noexcept;
  /// Bernoulli draw: does this L1/L2 repack fail?
  [[nodiscard]] bool draw_repack_failure() noexcept;
  /// Backoff (simulated seconds) before the retry that follows failed
  /// attempt `failed_attempt` (1-based); consumes one jitter draw.
  [[nodiscard]] double draw_backoff(std::size_t failed_attempt);

 private:
  FaultPlan plan_;
  util::Rng stream_;
};

}  // namespace mlcr::faults
