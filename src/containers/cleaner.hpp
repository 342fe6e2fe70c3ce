// Container cleaner (paper Sec. III "Container cleaner"): when a warm
// container is reused by a different function, package volumes are swapped —
// private language/runtime volumes are unmounted and the required volumes are
// mounted from the function database. OS packages live on the container's
// writable layer, not on a volume, which is why an OS mismatch forces a cold
// start (Table I pruning).
#pragma once

#include "containers/container.hpp"
#include "containers/matching.hpp"

namespace mlcr::containers {

/// The volume operations a repack performs, and their latency.
struct RepackPlan {
  MatchLevel match = MatchLevel::kNoMatch;
  /// Volumes removed from the container (language / runtime / user-data).
  int unmounted_volumes = 0;
  /// Volumes attached from the function database.
  int mounted_volumes = 0;
  /// Pure volume-management latency, seconds (mount/unmount syscalls); the
  /// cost of pulling/installing packages that are *not* in the function
  /// database is accounted separately by sim::StartupCostModel.
  double volume_ops_s = 0.0;
};

/// Volume-management latencies, podman-scale. The user-data volume is always
/// swapped on reuse, even at a full match (isolation between tenants).
inline constexpr double kVolumeUnmountS = 0.003;  ///< per-volume unmount
inline constexpr double kVolumeMountS = 0.005;    ///< per-volume mount

/// Applies the multi-level repack to a container so it can serve `function`.
class ContainerCleaner {
 public:
  /// Plans the volume operations needed to reuse `container` for an
  /// invocation with image `function`, given their match level.
  /// Requires reusable(level).
  [[nodiscard]] RepackPlan plan(const ImageSpec& function,
                                MatchLevel level) const;

  /// Executes the plan: rewrites the container's mismatched levels to the
  /// function's packages, refreshes the memory footprint, and bumps the
  /// repack counter when the image actually changed.
  void repack(Container& container, const ImageSpec& function,
              const PackageCatalog& catalog, MatchLevel level) const;

};

}  // namespace mlcr::containers
