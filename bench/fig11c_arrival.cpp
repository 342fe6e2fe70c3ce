// Fig. 11c reproduction: startup latency under Uniform / Peak / Random
// arrival patterns (paper Metric 3; FuncIDs 1,2,5,6,13; 300 invocations in a
// 6-minute window). Expected shape: Peak is the hardest for every system;
// MLCR consistently wins, with its largest margin under Peak.
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace mlcr;
  const auto options = benchtools::BenchOptions::parse_or_exit(argc, argv);
  const benchtools::Suite suite;

  std::vector<benchtools::WorkloadFamily> families;
  for (const auto pattern :
       {fstartbench::ArrivalPattern::kUniform,
        fstartbench::ArrivalPattern::kPeak,
        fstartbench::ArrivalPattern::kRandom}) {
    const std::string name = fstartbench::to_string(pattern);
    families.push_back(
        {name + " arrivals (FuncIDs 1,2,5,6,13)", "bench_arrival_" + name,
         [&suite, pattern](util::Rng& rng) {
           return fstartbench::make_arrival_workload(suite.bench, pattern, 300,
                                                     rng);
         }});
  }
  benchtools::run_fig11(suite, options, families, "Fig. 11c");
  return 0;
}
