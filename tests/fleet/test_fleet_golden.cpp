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

TEST(FleetGolden, RunMatchesGolden) {
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
      EXPECT_EQ(golden::run_line(scenario, spec), it->second);
    }
}

/// The serving plane's deterministic replay routes through the same index
/// queries and failover rule, so each standard policy must reproduce its
/// fleet router's golden line.
TEST(FleetGolden, ReplayMatchesGolden) {
  const auto expected = load_golden();
  const golden::Matrix matrix;
  for (const golden::Scenario& scenario : matrix.scenarios())
    for (const serve::PolicySpec& spec :
         serve::standard_policies(golden::kRouterSeed)) {
      const std::string key = scenario.name + ' ' + spec.name;
      SCOPED_TRACE(key);
      const auto it = expected.find(key);
      ASSERT_NE(it, expected.end());
      fleet::FleetEnv fleet = golden::make_fleet(scenario);
      serve::SimClock clock;
      serve::SchedulerService service(fleet, clock, spec.make(),
                                      serve::ServeConfig{});
      const serve::ServeSummary replay = service.run_replay(scenario.trace);
      EXPECT_EQ(golden::line(scenario.name, replay.fleet), it->second);
    }
}

/// The path perfbench's serve-mlcr times: requests submitted in arrival
/// order and served by pump_once() alone, `per_pump` at a time with the
/// clock advanced to the group's last arrival first. The pump fires every
/// node event and planned fault due at each request's arrival before
/// routing it, so the grouping must not move a decision. With `workers`
/// queues, submit() deals the requests round-robin over them and the pump
/// must still serve them in arrival order.
void expect_pumped_golden(std::size_t per_pump, std::size_t workers = 1) {
  const auto expected = load_golden();
  const golden::Matrix matrix;
  for (const golden::Scenario& scenario : matrix.scenarios())
    for (const serve::PolicySpec& spec :
         serve::standard_policies(golden::kRouterSeed)) {
      const std::string key = scenario.name + ' ' + spec.name;
      SCOPED_TRACE(key);
      const auto it = expected.find(key);
      ASSERT_NE(it, expected.end());
      fleet::FleetEnv fleet = golden::make_fleet(scenario);
      serve::SimClock clock;
      serve::ServeConfig config;
      config.workers = workers;
      serve::SchedulerService service(fleet, clock, spec.make(), config);
      service.begin_episode();
      const auto& invs = scenario.trace.invocations();
      for (std::size_t i = 0; i < invs.size(); i += per_pump) {
        const std::size_t end = std::min(invs.size(), i + per_pump);
        clock.advance_to(invs[end - 1].arrival_s);
        for (std::size_t k = i; k < end; ++k)
          ASSERT_TRUE(service.submit(invs[k]));
        ASSERT_EQ(service.pump_once(), end - i);
      }
      const serve::ServeSummary pumped = service.finish_episode();
      EXPECT_EQ(golden::line(scenario.name, pumped.fleet), it->second);
    }
}

TEST(FleetGolden, OneRequestPerPumpMatchesGolden) { expect_pumped_golden(1); }

TEST(FleetGolden, EightRequestsPerPumpMatchGolden) { expect_pumped_golden(8); }

TEST(FleetGolden, TwoQueuesEightRequestsPerPumpMatchGolden) {
  expect_pumped_golden(8, /*workers=*/2);
}

}  // namespace
}  // namespace mlcr
