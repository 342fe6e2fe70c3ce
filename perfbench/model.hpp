// The MLCR model the serve-mlcr workload serves, and the check that its
// Q-values are finite on the workload's states.
#pragma once

#include <memory>
#include <string>

#include "core/mlcr.hpp"
#include "fstartbench/benchmark.hpp"
#include "rl/dqn.hpp"
#include "sim/cost_model.hpp"

namespace perfbench {

/// Load a model trained with the default MLCR config (throws on a missing or
/// incompatible file).
[[nodiscard]] std::shared_ptr<mlcr::rl::DqnAgent> load_agent(
    const std::string& path);

struct QScan {
  std::size_t states = 0;
  std::size_t nonfinite = 0;  ///< states with any non-finite Q-value
};

/// Run the agent greedily over `trace` on one node with `pool_mb` of warm
/// pool, counting the states whose Q-values are not all finite.
[[nodiscard]] QScan scan_q_values(mlcr::rl::DqnAgent& agent,
                                  const mlcr::fstartbench::Benchmark& bench,
                                  const mlcr::sim::StartupCostModel& cost,
                                  double pool_mb,
                                  const mlcr::sim::Trace& trace);

/// Both steps for a model file over the first 400 states of the overall
/// workload drawn from `seed`, at the overall workload's Moderate pool.
[[nodiscard]] QScan check_model_file(const std::string& path,
                                     std::uint64_t seed);

}  // namespace perfbench
