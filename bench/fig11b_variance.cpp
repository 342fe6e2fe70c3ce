// Fig. 11b reproduction: startup latency under LO-Var vs HI-Var workloads
// (package-size variance, paper Metric 2). Expected shape: every system does
// better on LO-Var; MLCR's advantage grows under HI-Var. The two families
// reuse the Fig. 11a model caches because the paper composes them from the
// same function sets (see workloads.hpp for the set-assignment note).
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace mlcr;
  const auto options = benchtools::BenchOptions::parse_or_exit(argc, argv);
  const benchtools::Suite suite;

  const std::vector<benchtools::WorkloadFamily> families = {
      {"LO-Var (small, similar package sizes)", "bench_sim_hi",
       [&](util::Rng& rng) {
         return fstartbench::make_variance_workload(suite.bench, false, 300,
                                                    rng);
       }},
      {"HI-Var (Alpine hellos .. TensorFlow)", "bench_sim_lo",
       [&](util::Rng& rng) {
         return fstartbench::make_variance_workload(suite.bench, true, 300,
                                                    rng);
       }},
  };
  benchtools::run_fig11(suite, options, families, "Fig. 11b");
  return 0;
}
