// FleetEnv::run and SchedulerService's pumped episodes against the committed
// golden summaries of tests/fleet/fleet_golden.txt (see fleet_golden.hpp for
// the matrix). The file was printed by make_fleet_golden at the commit that
// still carried the per-arrival reference loop, and every line matched that
// loop too, so these tests pin the event core, the FleetIndex queries and
// the failover rule to an independent implementation's answers. Regenerate
// the file only when routing or the simulator changes a decision on
// purpose.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet_golden.hpp"
#include "serve/clock.hpp"
#include "serve/policy.hpp"
#include "serve/service.hpp"

namespace mlcr {
namespace {

namespace golden = fleet::golden;

/// The golden lines keyed by `<scenario> <router>`.
std::map<std::string, std::string> load_golden() {
  std::ifstream in(FLEET_GOLDEN_FILE);
  EXPECT_TRUE(in.good()) << "cannot open " << FLEET_GOLDEN_FILE;
  std::map<std::string, std::string> lines;
  std::string text;
  while (std::getline(in, text)) {
    if (text.empty() || text.front() == '#') continue;
    const std::size_t router_end = text.find(' ', text.find(' ') + 1);
    lines[text.substr(0, router_end)] = text;
  }
  return lines;
}

/// `cell()`'s golden line, or the message of what it threw, so a cell that
/// throws fails alone instead of ending the sweep.
template <typename Cell>
std::string line_or_error(Cell&& cell) {
  try {
    return cell();
  } catch (const std::exception& e) {
    return std::string("threw: ") + e.what();
  }
}

/// Compares `line(scenario, spec)` with the golden line of every cell.
template <typename Line>
void expect_golden(Line&& line) {
  const auto expected = load_golden();
  const golden::Matrix matrix;
  const std::vector<fleet::RouterSpec> routers = golden::routers();
  ASSERT_EQ(expected.size(), matrix.scenarios().size() * routers.size())
      << "the golden file and the matrix disagree on the cells";
  for (const golden::Scenario& scenario : matrix.scenarios())
    for (const fleet::RouterSpec& spec : routers) {
      const std::string key = scenario.name + ' ' + spec.name;
      SCOPED_TRACE(key);
      const auto it = expected.find(key);
      ASSERT_NE(it, expected.end());
      EXPECT_EQ(line_or_error([&] { return line(scenario, spec); }),
                it->second);
    }
}

TEST(FleetGolden, RunMatchesGolden) { expect_golden(golden::run_line); }

/// A fresh `spec` router hosted as a serving policy.
std::unique_ptr<serve::RoutePolicy> hosted(const fleet::RouterSpec& spec) {
  return std::make_unique<serve::RouterPolicy>(spec.make());
}

/// The serving plane's deterministic replay hosts the same routers over its
/// own index and fails over by the same rule, so every router spec, bare and
/// health-aware, must reproduce its golden line.
TEST(FleetGolden, ReplayMatchesGolden) {
  expect_golden([](const golden::Scenario& scenario,
                   const fleet::RouterSpec& spec) {
    fleet::FleetEnv fleet = golden::make_fleet(scenario);
    serve::SimClock clock;
    serve::SchedulerService service(fleet, clock, hosted(spec),
                                    serve::ServeConfig{});
    const serve::ServeSummary summary = service.run_replay(scenario.trace);
    return golden::line(scenario.name, summary.fleet, fleet);
  });
}

/// The path perfbench's serve-mlcr times: requests submitted in arrival
/// order and served by pump_once() alone, `per_pump` at a time with the
/// clock advanced to the group's last arrival first. The pump fires every
/// node event and planned fault due at each request's arrival before
/// routing it, so the grouping must not move a decision. With `workers`
/// queues, submit() deals the requests round-robin over them and the pump
/// must still serve them in arrival order.
void expect_pumped_golden(std::size_t per_pump, std::size_t workers = 1) {
  expect_golden([&](const golden::Scenario& scenario,
                    const fleet::RouterSpec& spec) -> std::string {
    fleet::FleetEnv fleet = golden::make_fleet(scenario);
    serve::SimClock clock;
    serve::ServeConfig config;
    config.workers = workers;
    serve::SchedulerService service(fleet, clock, hosted(spec), config);
    service.begin_episode();
    const auto& invs = scenario.trace.invocations();
    for (std::size_t i = 0; i < invs.size(); i += per_pump) {
      const std::size_t end = std::min(invs.size(), i + per_pump);
      clock.advance_to(invs[end - 1].arrival_s);
      for (std::size_t k = i; k < end; ++k)
        if (!service.submit(invs[k])) return "a submit was rejected";
      if (service.pump_once() != end - i) return "a pump served a part";
    }
    const serve::ServeSummary summary = service.finish_episode();
    return golden::line(scenario.name, summary.fleet, fleet);
  });
}

TEST(FleetGolden, OneRequestPerPumpMatchesGolden) { expect_pumped_golden(1); }

TEST(FleetGolden, EightRequestsPerPumpMatchGolden) { expect_pumped_golden(8); }

TEST(FleetGolden, TwoQueuesEightRequestsPerPumpMatchGolden) {
  expect_pumped_golden(8, /*workers=*/2);
}

}  // namespace
}  // namespace mlcr
