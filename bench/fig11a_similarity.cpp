// Fig. 11a reproduction: startup latency under HI-Sim vs LO-Sim workloads
// (function similarity, paper Metric 1). Expected shape: every system does
// better on HI-Sim; MLCR's edge over Greedy-Match is larger on LO-Sim.
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace mlcr;
  const auto options = benchtools::BenchOptions::parse_or_exit(argc, argv);
  const benchtools::Suite suite;

  const std::vector<benchtools::WorkloadFamily> families = {
      {"HI-Sim (FuncIDs 1,2,3,4,11)", "bench_sim_hi",
       [&](util::Rng& rng) {
         return fstartbench::make_similarity_workload(suite.bench, true, 300,
                                                      rng);
       }},
      {"LO-Sim (FuncIDs 1,2,5,9,13)", "bench_sim_lo",
       [&](util::Rng& rng) {
         return fstartbench::make_similarity_workload(suite.bench, false, 300,
                                                      rng);
       }},
  };
  benchtools::run_fig11(suite, options, families, "Fig. 11a");
  return 0;
}
