#include "containers/registry.hpp"

#include <algorithm>
#include <map>

#include "util/check.hpp"

namespace mlcr::containers {

namespace {

constexpr std::uint64_t kTotalPulls = 50'000'000;
/// Zipf exponents: image popularity, base-image choice, language choice.
constexpr double kImagePopularityExponent = 1.1;
constexpr double kOsChoiceExponent = 1.4;
constexpr double kLanguageChoiceExponent = 1.2;
/// Runtime packages per image, uniform in [min, max].
constexpr std::int64_t kMinRuntimePackages = 0;
constexpr std::int64_t kMaxRuntimePackages = 4;

}  // namespace

SyntheticRegistry::SyntheticRegistry(const PackageCatalog& catalog,
                                     util::Rng rng)
    : catalog_(catalog) {
  // Partition the catalog by level.
  std::vector<PackageId> os, lang, rt;
  for (PackageId id = 0; id < catalog.size(); ++id) {
    switch (catalog.info(id).level) {
      case Level::kOs:
        os.push_back(id);
        break;
      case Level::kLanguage:
        lang.push_back(id);
        break;
      case Level::kRuntime:
        rt.push_back(id);
        break;
    }
  }
  MLCR_CHECK_MSG(!os.empty() && !lang.empty(),
                 "registry needs OS and language packages in the catalog");

  const util::ZipfSampler os_zipf(os.size(), kOsChoiceExponent);
  const util::ZipfSampler lang_zipf(lang.size(), kLanguageChoiceExponent);
  const util::ZipfSampler image_zipf(kRegistryImages, kImagePopularityExponent);

  images_.resize(kRegistryImages);
  for (std::size_t i = 0; i < kRegistryImages; ++i) {
    std::vector<PackageId> image_os = {os[os_zipf.sample(rng)]};
    std::vector<PackageId> image_lang = {lang[lang_zipf.sample(rng)]};
    std::vector<PackageId> image_rt;
    if (!rt.empty()) {
      const auto n = static_cast<std::size_t>(
          rng.uniform_int(kMinRuntimePackages, kMaxRuntimePackages));
      for (std::size_t j = 0; j < n; ++j)
        image_rt.push_back(rt[rng.uniform_index(rt.size())]);
    }
    images_[i].image = ImageSpec(std::move(image_os), std::move(image_lang),
                                 std::move(image_rt));
    // Expected pulls for this popularity rank; deterministic given the seed.
    images_[i].pull_count = static_cast<std::uint64_t>(
        image_zipf.probability(i) * static_cast<double>(kTotalPulls));
  }
}

std::vector<PackagePopularity> SyntheticRegistry::popularity(
    Level level) const {
  // Aggregated in deterministic key order (std::map): the rows feed the
  // Fig. 3 tables directly, so iteration order must not depend on hashing.
  std::map<PackageId, std::uint64_t> pulls;
  std::uint64_t total = 0;
  for (const auto& img : images_) {
    total += img.pull_count;
    for (PackageId p : img.image.level(level)) pulls[p] += img.pull_count;
  }
  std::vector<PackagePopularity> out;
  out.reserve(pulls.size());
  for (const auto& [pkg, count] : pulls) {
    PackagePopularity p;
    p.package = pkg;
    p.name = catalog_.info(pkg).name;
    p.pull_count = count;
    p.share = total ? static_cast<double>(count) / static_cast<double>(total)
                    : 0.0;
    out.push_back(std::move(p));
  }
  std::sort(out.begin(), out.end(),
            [](const PackagePopularity& a, const PackagePopularity& b) {
              if (a.pull_count != b.pull_count)
                return a.pull_count > b.pull_count;
              return a.package < b.package;
            });
  return out;
}

double SyntheticRegistry::top_k_share(Level level, std::size_t k) const {
  const auto pop = popularity(level);
  double share = 0.0;
  for (std::size_t i = 0; i < std::min(k, pop.size()); ++i)
    share += pop[i].share;
  return share;
}

}  // namespace mlcr::containers
