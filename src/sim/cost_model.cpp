#include "sim/cost_model.hpp"

#include "util/check.hpp"

namespace mlcr::sim {

using containers::Level;
using containers::MatchLevel;

StartupCostModel::StartupCostModel(const containers::PackageCatalog& catalog,
                                   CostModelConfig config)
    : catalog_(catalog), config_(config) {
  MLCR_CHECK(config_.sandbox_create_s >= 0.0);
  MLCR_CHECK(config_.pull_bandwidth_mb_s > 0.0);
  MLCR_CHECK(config_.pull_rtt_s >= 0.0);
}

double StartupCostModel::pull_time_s(double size_mb,
                                     std::size_t package_count) const noexcept {
  return size_mb / config_.pull_bandwidth_mb_s +
         config_.pull_rtt_s * static_cast<double>(package_count);
}

void StartupCostModel::add_level_provisioning(const FunctionType& fn,
                                              Level level,
                                              StartupBreakdown& b) const {
  const auto& packages = fn.image.level(level);
  b.pull_s += pull_time_s(catalog_.total_size_mb(packages), packages.size());
  b.install_s += catalog_.total_install_s(packages);
}

StartupBreakdown StartupCostModel::cold_start(const FunctionType& fn) const {
  StartupBreakdown b;
  b.sandbox_s = config_.sandbox_create_s;
  for (Level level : containers::kAllLevels)
    add_level_provisioning(fn, level, b);
  b.runtime_init_s = fn.runtime_init_s;
  b.function_init_s = fn.function_init_s;
  return b;
}

StartupBreakdown StartupCostModel::warm_start(const FunctionType& fn,
                                              MatchLevel level) const {
  MLCR_CHECK_MSG(containers::reusable(level),
                 "warm_start requires a reusable match level");
  StartupBreakdown b;
  if (level <= MatchLevel::kL1)
    add_level_provisioning(fn, Level::kLanguage, b);
  if (level <= MatchLevel::kL2) {
    add_level_provisioning(fn, Level::kRuntime, b);
    // Re-provisioned runtime packages force a framework re-initialization.
    b.runtime_init_s = fn.runtime_init_s;
  }
  b.function_init_s = fn.function_init_s;
  b.cleaner_s = cleaner_.plan(fn.image, level).volume_ops_s;
  return b;
}

StartupBreakdown StartupCostModel::start_cost(const FunctionType& fn,
                                              MatchLevel level) const {
  return containers::reusable(level) ? warm_start(fn, level) : cold_start(fn);
}

StartupBreakdown StartupCostModel::union_warm_start(
    const FunctionType& fn, const containers::ImageSpec& container) const {
  MLCR_CHECK_MSG(container.level_equals(fn.image, Level::kOs),
                 "union reuse requires a matching OS level");
  StartupBreakdown b;
  bool runtime_changed = false;
  for (const Level level : {Level::kLanguage, Level::kRuntime}) {
    const auto missing = container.level_missing(fn.image, level);
    if (missing.empty()) continue;
    b.pull_s += pull_time_s(catalog_.total_size_mb(missing), missing.size());
    b.install_s += catalog_.total_install_s(missing);
    runtime_changed = true;
  }
  if (runtime_changed) b.runtime_init_s = fn.runtime_init_s;
  b.function_init_s = fn.function_init_s;
  // The cleaner only mounts the missing volumes plus the user-data swap.
  const int mounted_volumes = runtime_changed ? 1 : 0;
  b.cleaner_s = mounted_volumes * containers::kVolumeMountS +
                (containers::kVolumeMountS + containers::kVolumeUnmountS);
  return b;
}

}  // namespace mlcr::sim
