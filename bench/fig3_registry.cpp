// Fig. 3 reproduction: pull-count concentration among the top-1000 images of
// a Docker-Hub-like registry. The paper observes that a few base (OS) images
// dominate — the four most popular account for 77% of pulls — and that
// language packages are similarly concentrated. We reproduce the analysis on
// the synthetic Zipf registry (the substitution for crawling Docker Hub).
#include <iostream>

#include "common.hpp"
#include "containers/registry.hpp"

int main() {
  using namespace mlcr;

  // A catalog shaped like the Docker Hub ecosystem: a handful of bases and
  // languages, a long tail of runtime packages.
  containers::PackageCatalog catalog;
  const char* oses[] = {"ubuntu", "alpine", "busybox", "centos", "debian",
                        "fedora", "archlinux", "opensuse"};
  for (const char* os : oses)
    (void)catalog.add(os, containers::Level::kOs, 100.0);
  const char* langs[] = {"python", "openjdk", "golang", "node", "ruby",
                         "php", "rust", "dotnet", "erlang", "perl"};
  for (const char* lang : langs)
    (void)catalog.add(lang, containers::Level::kLanguage, 80.0);
  for (int i = 0; i < 60; ++i)
    (void)catalog.add("runtime-" + std::to_string(i),
                      containers::Level::kRuntime, 20.0);

  // 1000 images, Zipf popularity.
  const containers::SyntheticRegistry registry(catalog, util::Rng(2024));

  std::cout << "=== Fig. 3: top-1000 most popular images, pull concentration "
               "===\n";
  for (const auto level :
       {containers::Level::kOs, containers::Level::kLanguage}) {
    util::Table table({"rank", std::string(containers::to_string(level)),
                       "pulls (M)", "share %", "cumulative %"});
    const auto pop = registry.popularity(level);
    double cumulative = 0.0;
    for (std::size_t i = 0; i < std::min<std::size_t>(8, pop.size()); ++i) {
      cumulative += pop[i].share;
      table.add_row({std::to_string(i + 1), pop[i].name,
                     util::Table::num(
                         static_cast<double>(pop[i].pull_count) / 1e6, 1),
                     util::Table::num(100.0 * pop[i].share, 1),
                     util::Table::num(100.0 * cumulative, 1)});
    }
    table.print(std::cout);
  }
  std::cout << "top-4 base image share: "
            << util::Table::num(
                   100.0 * registry.top_k_share(containers::Level::kOs, 4), 1)
            << "% (paper: 77%)\n";
  std::cout << "top-3 language share:   "
            << util::Table::num(
                   100.0 * registry.top_k_share(containers::Level::kLanguage,
                                                3),
                   1)
            << "%\n";
  return 0;
}
