#include "containers/cleaner.hpp"

#include "util/check.hpp"

namespace mlcr::containers {

RepackPlan ContainerCleaner::plan(const ImageSpec& function,
                                  MatchLevel level) const {
  MLCR_CHECK_MSG(reusable(level), "cannot repack a no-match container");
  RepackPlan p;
  p.match = level;

  // One volume per mismatched level below the match point (language and/or
  // runtime), plus the user-data volume, which always swaps.
  int volumes = 1;
  if (level <= MatchLevel::kL1 && !function.level(Level::kLanguage).empty())
    ++volumes;
  if (level <= MatchLevel::kL2 && !function.level(Level::kRuntime).empty())
    ++volumes;

  p.unmounted_volumes = volumes;
  p.mounted_volumes = volumes;
  p.volume_ops_s = p.unmounted_volumes * kVolumeUnmountS +
                   p.mounted_volumes * kVolumeMountS;
  return p;
}

void ContainerCleaner::repack(Container& container, const ImageSpec& function,
                              const PackageCatalog& catalog,
                              MatchLevel level) const {
  MLCR_CHECK_MSG(reusable(level), "cannot repack a no-match container");
  const bool image_changes = !(container.image == function);
  if (level <= MatchLevel::kL1)
    container.image.set_level(Level::kLanguage,
                              function.level(Level::kLanguage));
  if (level <= MatchLevel::kL2)
    container.image.set_level(Level::kRuntime, function.level(Level::kRuntime));
  container.refresh_memory(catalog);
  if (image_changes) ++container.repack_count;
}

}  // namespace mlcr::containers
