// Episode runner: drives a scheduler over a trace and collects the summary
// the benchmark tables report.
#pragma once

#include <string>
#include <vector>

#include "policies/baselines.hpp"
#include "policies/scheduler.hpp"
#include "sim/env.hpp"

namespace mlcr::policies {

struct EpisodeSummary {
  std::string scheduler;
  std::size_t invocations = 0;
  double total_latency_s = 0.0;
  double average_latency_s = 0.0;
  std::size_t cold_starts = 0;
  std::size_t warm_l1 = 0;
  std::size_t warm_l2 = 0;
  std::size_t warm_l3 = 0;
  double peak_pool_mb = 0.0;
  std::size_t evictions = 0;
  std::size_t rejections = 0;
  /// Invocations never served (fault retries exhausted / node crash) and
  /// retried start attempts; both 0 without fault injection.
  std::size_t failed = 0;
  std::size_t retries = 0;
};

/// Build the summary row from an environment's collected metrics and pool
/// statistics. Factored out of run_episode so the fleet layer can summarize
/// each node with identical accounting.
[[nodiscard]] EpisodeSummary summarize_env(const sim::ClusterEnv& env,
                                           std::string scheduler_name);

/// Run one full episode of `scheduler` on `trace` in `env` (resets the env).
EpisodeSummary run_episode(sim::ClusterEnv& env, Scheduler& scheduler,
                           const sim::Trace& trace);

/// Convenience: build an env for `spec` and run it on `trace`.
EpisodeSummary run_system(const SystemSpec& spec,
                          const sim::FunctionTable& functions,
                          const containers::PackageCatalog& catalog,
                          const sim::StartupCostModel& cost_model,
                          double pool_capacity_mb, const sim::Trace& trace);

}  // namespace mlcr::policies
