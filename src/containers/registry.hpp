// Synthetic Docker-Hub-like registry used to reproduce the paper's Fig. 3
// analysis: among the top-1000 most popular images, a handful of base (OS)
// images and language packages dominate the pull counts (the four most popular
// base images account for 77% of pulls). We model image popularity and
// base-image choice with Zipf distributions and expose the same aggregate
// statistics the paper reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "containers/image.hpp"
#include "util/rng.hpp"

namespace mlcr::containers {

/// One registry image with its simulated popularity.
struct RegistryImage {
  ImageSpec image;
  std::uint64_t pull_count = 0;
};

/// Aggregated popularity of a package across all registry images.
struct PackagePopularity {
  PackageId package = kInvalidPackage;
  std::string name;
  std::uint64_t pull_count = 0;
  double share = 0.0;  ///< fraction of total pulls
};

/// Images in the registry: the paper's top-1000 most popular.
inline constexpr std::size_t kRegistryImages = 1000;

/// Builds the synthetic registry of kRegistryImages images on top of a
/// catalog whose packages are grouped by level. The catalog must contain at
/// least one OS and one language package.
class SyntheticRegistry {
 public:
  SyntheticRegistry(const PackageCatalog& catalog, util::Rng rng);

  [[nodiscard]] const std::vector<RegistryImage>& images() const noexcept {
    return images_;
  }

  /// Popularity of packages at one level, sorted by pull count descending.
  [[nodiscard]] std::vector<PackagePopularity> popularity(Level level) const;

  /// Fraction of total pulls covered by the top-k packages at `level`
  /// (paper: top-4 base images cover 77%).
  [[nodiscard]] double top_k_share(Level level, std::size_t k) const;

 private:
  const PackageCatalog& catalog_;
  std::vector<RegistryImage> images_;
};

}  // namespace mlcr::containers
