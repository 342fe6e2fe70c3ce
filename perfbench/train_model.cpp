// Trains the MLCR model that the serve-mlcr workload loads. It is the
// fig8_overall training path (bench/common.hpp trained_agent) with the
// default MLCR config, seed 42 and the overall workload's Tight / Moderate /
// Loose pools, written to the path given as the only argument instead of the
// bench_overall cache:
//
//   ./train_model perfbench/mlcr_overall      # writes mlcr_overall.model
//
// An existing file at that path is replaced.
#include <iostream>
#include <string>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace mlcr;
  if (argc != 2) {
    std::cerr << "usage: train_model <output path without .model>\n";
    return 2;
  }
  const std::string tag = argv[1];
  benchtools::BenchOptions options;
  options.fresh = true;
  const benchtools::Suite suite;
  const benchtools::TraceFactory factory = [&](util::Rng& rng) {
    return fstartbench::make_overall_workload(suite.bench, 400, rng);
  };
  util::Rng ref_rng(1000);
  const sim::Trace reference = factory(ref_rng);
  const auto pools = fstartbench::paper_pool_sizes(
      fstartbench::estimate_loose_capacity_mb(suite.bench, reference));
  const core::MlcrConfig cfg = core::make_default_mlcr_config();
  (void)benchtools::trained_agent(
      suite, tag, factory, {pools.tight_mb, pools.moderate_mb, pools.loose_mb},
      cfg, options);
  std::cout << "wrote " << tag << ".model\n";
  return 0;
}
