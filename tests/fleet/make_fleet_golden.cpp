// Writes tests/fleet/fleet_golden.txt: the FleetEnv::run summary of every
// (scenario, router) cell of the matrix in fleet_golden.hpp.
//
//   ./build/tests/make_fleet_golden > tests/fleet/fleet_golden.txt
#include <cstdio>

#include "fleet/fleet_golden.hpp"

int main() {
  using namespace mlcr::fleet;
  std::printf(
      "# <scenario> <router> <summary>: FleetEnv::run with Greedy-Match "
      "nodes; doubles as bits, records as count:FNV-1a.\n");
  const golden::Matrix matrix;
  for (const golden::Scenario& scenario : matrix.scenarios())
    for (const RouterSpec& spec : golden::routers())
      std::printf("%s\n", golden::run_line(scenario, spec).c_str());
  return 0;
}
