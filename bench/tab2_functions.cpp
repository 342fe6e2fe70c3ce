// Table II reproduction: the 13 FStartBench functions with their OS,
// language, and runtime packages, plus the derived workload metrics the
// paper quotes in Sec. V (pairwise similarity, package-size variance).
#include <iostream>

#include "common.hpp"
#include "containers/matching.hpp"

int main() {
  using namespace mlcr;
  const benchtools::Suite suite;
  const auto& bench = suite.bench;

  util::Table table({"FuncID", "OS", "Language", "Runtime", "Description",
                     "image (MB)", "mean exec (s)"});
  for (int id = 1; id <= 13; ++id) {
    const auto& fn = bench.functions.get(bench.by_paper_id(id));
    auto names = [&](containers::Level level) {
      std::string out;
      for (const auto pkg : fn.image.level(level)) {
        if (!out.empty()) out += " + ";
        out += bench.catalog.info(pkg).name;
      }
      return out.empty() ? std::string("-") : out;
    };
    table.add_row({std::to_string(id), names(containers::Level::kOs),
                   names(containers::Level::kLanguage),
                   names(containers::Level::kRuntime), fn.description,
                   util::Table::num(fn.image.total_size_mb(bench.catalog), 0),
                   util::Table::num(fn.mean_exec_s, 2)});
  }
  std::cout << "=== Table II: FStartBench functions ===\n";
  table.print(std::cout);

  util::Table metrics({"workload", "paper FuncIDs", "avg pairwise Jaccard",
                       "package size variance"});
  struct Set {
    const char* name;
    std::initializer_list<int> ids;
  };
  for (const Set& s : {Set{"HI-Sim / LO-Var", {1, 2, 3, 4, 11}},
                       Set{"LO-Sim / HI-Var", {1, 2, 5, 9, 13}},
                       Set{"Arrival (Fig 11c)", {1, 2, 5, 6, 13}}}) {
    const auto types = bench.paper_ids(s.ids);
    std::string ids;
    for (int id : s.ids) {
      if (!ids.empty()) ids += ',';
      ids += std::to_string(id);
    }
    metrics.add_row(
        {s.name, ids,
         util::Table::num(
             fstartbench::average_pairwise_similarity(bench, types), 2),
         util::Table::num(fstartbench::package_size_variance(bench, types),
                          0)});
  }
  std::cout << "\n=== Sec. V workload metrics (paper: similarity 0.52 vs "
               "0.29; variance 54 vs 769) ===\n";
  metrics.print(std::cout);
  return 0;
}
