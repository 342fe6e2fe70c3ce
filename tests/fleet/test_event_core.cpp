// The fleet's event core: EventCore's own order (faults before node
// advances at equal times, stale entries dropped). FleetEnv::run itself is
// pinned by tests/fleet/fleet_golden.txt (test_fleet_golden.cpp).
#include <gtest/gtest.h>

#include <vector>

#include "fleet/event_core.hpp"
#include "fleet/fleet_env.hpp"

namespace mlcr {
namespace {

TEST(FleetEventCore, FaultsFireBeforeAdvancesAndStaleEntriesAreDropped) {
  const std::vector<fleet::FleetEnv::FaultEvent> faults = {
      {.time = 2.0, .is_recovery = false, .node = 1},
      {.time = 5.0, .is_recovery = true, .node = 1}};
  fleet::EventCore core(3, faults);
  core.reschedule(0, 2.0);
  core.reschedule(1, std::nullopt);
  core.reschedule(2, 1.0);
  core.reschedule(2, 3.0);  // supersedes the 1.0 entry

  EXPECT_FALSE(core.pop_due(1.5).has_value());  // the 1.0 entry is stale
  auto ev = core.pop_due(10.0);
  ASSERT_TRUE(ev.has_value());
  ASSERT_NE(ev->fault, nullptr);  // same time as node 0: the fault first
  EXPECT_EQ(ev->fault, &faults[0]);
  EXPECT_EQ(ev->node, 1U);
  ev = core.pop_due(10.0);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->fault, nullptr);
  EXPECT_EQ(ev->node, 0U);
  EXPECT_EQ(ev->time, 2.0);
  ev = core.pop_due(4.0);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->node, 2U);
  EXPECT_EQ(ev->time, 3.0);
  // Popped advances leave no entry until the host reschedules the node.
  EXPECT_FALSE(core.pop_due(4.0).has_value());
  EXPECT_EQ(core.next_fault(), 1U);
  ev = core.pop_due(5.0);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->fault, &faults[1]);
  EXPECT_EQ(core.next_fault(), 2U);
  EXPECT_FALSE(core.pop_due(100.0).has_value());
}

}  // namespace
}  // namespace mlcr
