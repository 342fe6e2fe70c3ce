#include "containers/registry.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace mlcr::containers {
namespace {

PackageCatalog make_catalog() {
  PackageCatalog c;
  for (int i = 0; i < 8; ++i)
    (void)c.add("os-" + std::to_string(i), Level::kOs, 50.0);
  for (int i = 0; i < 10; ++i)
    (void)c.add("lang-" + std::to_string(i), Level::kLanguage, 40.0);
  for (int i = 0; i < 30; ++i)
    (void)c.add("rt-" + std::to_string(i), Level::kRuntime, 10.0);
  return c;
}

TEST(Registry, BuildsRequestedImageCount) {
  const PackageCatalog catalog = make_catalog();
  const SyntheticRegistry reg(catalog, util::Rng(1));
  EXPECT_EQ(reg.images().size(), kRegistryImages);
  for (const auto& img : reg.images()) {
    EXPECT_EQ(img.image.level(Level::kOs).size(), 1U);
    EXPECT_EQ(img.image.level(Level::kLanguage).size(), 1U);
  }
}

TEST(Registry, PopularitySharesSumToOne) {
  const PackageCatalog catalog = make_catalog();
  const SyntheticRegistry reg(catalog, util::Rng(7));
  double total = 0.0;
  for (const auto& p : reg.popularity(Level::kOs)) total += p.share;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Registry, PopularityIsSortedDescending) {
  const PackageCatalog catalog = make_catalog();
  const SyntheticRegistry reg(catalog, util::Rng(7));
  const auto pop = reg.popularity(Level::kLanguage);
  for (std::size_t i = 1; i < pop.size(); ++i)
    EXPECT_GE(pop[i - 1].pull_count, pop[i].pull_count);
}

TEST(Registry, TopKShareIsMonotoneInK) {
  const PackageCatalog catalog = make_catalog();
  const SyntheticRegistry reg(catalog, util::Rng(7));
  double prev = 0.0;
  for (std::size_t k = 1; k <= 8; ++k) {
    const double s = reg.top_k_share(Level::kOs, k);
    EXPECT_GE(s, prev);
    EXPECT_LE(s, 1.0 + 1e-9);
    prev = s;
  }
}

TEST(Registry, FewBaseImagesDominate) {
  // The paper's Fig. 3 observation: top-4 base images take the lion's share.
  const PackageCatalog catalog = make_catalog();
  const SyntheticRegistry reg(catalog, util::Rng(7));
  EXPECT_GT(reg.top_k_share(Level::kOs, 4), 0.6);
}

TEST(Registry, DeterministicGivenSeed) {
  const PackageCatalog catalog = make_catalog();
  const SyntheticRegistry a(catalog, util::Rng(42));
  const SyntheticRegistry b(catalog, util::Rng(42));
  ASSERT_EQ(a.images().size(), b.images().size());
  for (std::size_t i = 0; i < a.images().size(); ++i) {
    EXPECT_EQ(a.images()[i].pull_count, b.images()[i].pull_count);
    EXPECT_TRUE(a.images()[i].image == b.images()[i].image);
  }
}

TEST(Registry, RequiresOsAndLanguagePackages) {
  PackageCatalog only_rt;
  (void)only_rt.add("rt", Level::kRuntime, 1.0);
  EXPECT_THROW(SyntheticRegistry(only_rt, util::Rng(1)),
               util::CheckError);
}

}  // namespace
}  // namespace mlcr::containers
