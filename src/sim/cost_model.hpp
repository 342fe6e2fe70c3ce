// Startup cost model. Decomposes a function start into the components the
// paper measures (Fig. 1): sandbox creation, code pulling, package
// installation, runtime initialization, function initialization, plus the
// container-cleaner volume operations on warm reuse.
//
// Calibration targets from the paper (Sec. II, measured on Tencent SCF):
//   * cold-start latency is 1.3x-166x of function runtime,
//   * code pulling is 47%-89% of the cold-start latency,
//   * init is ~6% for interpreted languages, up to ~45% for compiled ones.
#pragma once

#include "containers/cleaner.hpp"
#include "containers/matching.hpp"
#include "sim/function_type.hpp"

namespace mlcr::sim {

/// Per-component startup latency, seconds.
struct StartupBreakdown {
  double sandbox_s = 0.0;        ///< create + launch the sandbox (cold only)
  double pull_s = 0.0;           ///< fetch missing package bits
  double install_s = 0.0;        ///< install/configure fetched packages
  double runtime_init_s = 0.0;   ///< language runtime / framework boot
  double function_init_s = 0.0;  ///< user code initialization
  double cleaner_s = 0.0;        ///< volume mount/unmount on warm reuse

  [[nodiscard]] double total() const noexcept {
    return sandbox_s + pull_s + install_s + runtime_init_s + function_init_s +
           cleaner_s;
  }
};

struct CostModelConfig {
  /// Creating + launching a container sandbox, seconds.
  double sandbox_create_s = 0.6;
  /// Registry bandwidth for code pulling, MB/s. 30 MB/s makes code pulling
  /// 47%-89% of cold-start latency across the FStartBench functions,
  /// matching the paper's Sec. II measurements.
  double pull_bandwidth_mb_s = 30.0;
  /// Fixed per-package pull round-trip, seconds.
  double pull_rtt_s = 0.04;
};

/// Computes startup breakdowns from a function type, a match level and the
/// package catalog. Pure and stateless apart from configuration.
class StartupCostModel {
 public:
  StartupCostModel(const containers::PackageCatalog& catalog,
                   CostModelConfig config = {});

  /// Full cold start: sandbox + pull/install of all three levels + inits.
  [[nodiscard]] StartupBreakdown cold_start(const FunctionType& fn) const;

  /// Warm start on a container matched at `level` (must be reusable):
  ///   L3 -> function init + cleaner only;
  ///   L2 -> + pull/install runtime packages + runtime init;
  ///   L1 -> + pull/install language packages as well.
  [[nodiscard]] StartupBreakdown warm_start(
      const FunctionType& fn, containers::MatchLevel level) const;

  /// Breakdown for an arbitrary level; kNoMatch degrades to cold_start().
  /// This is what schedulers use to estimate candidate costs.
  [[nodiscard]] StartupBreakdown start_cost(
      const FunctionType& fn, containers::MatchLevel level) const;

  /// Union (zygote-style / paper Fig. 1 "W") warm start on `container`:
  /// only the packages the container lacks are pulled and installed, and
  /// nothing is removed. Requires the OS level to match (the paper's
  /// pruning rule: an OS reinstall invalidates everything above it).
  /// Runtime init is paid only if runtime packages were missing.
  [[nodiscard]] StartupBreakdown union_warm_start(
      const FunctionType& fn, const containers::ImageSpec& container) const;

  /// Latency of pulling `size_mb` across `package_count` packages.
  [[nodiscard]] double pull_time_s(double size_mb,
                                   std::size_t package_count) const noexcept;

  [[nodiscard]] const CostModelConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const containers::ContainerCleaner& cleaner() const noexcept {
    return cleaner_;
  }

 private:
  void add_level_provisioning(const FunctionType& fn, containers::Level level,
                              StartupBreakdown& b) const;

  const containers::PackageCatalog& catalog_;
  CostModelConfig config_;
  containers::ContainerCleaner cleaner_;
};

}  // namespace mlcr::sim
