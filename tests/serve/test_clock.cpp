// serve::Clock: SimClock is an explicitly advanced, monotone time source;
// WallClock is monotone relative to its construction epoch. Both are the
// only time the serving layer ever sees (DESIGN.md §11).
#include "serve/clock.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "util/check.hpp"

namespace mlcr::serve {
namespace {

TEST(ServeClock, SimClockAdvancesOnlyExplicitly) {
  SimClock clock(2.5);
  EXPECT_DOUBLE_EQ(clock.now_s(), 2.5);
  clock.advance_to(2.5);  // same time is allowed
  clock.advance_to(7.0);
  EXPECT_DOUBLE_EQ(clock.now_s(), 7.0);
}

TEST(ServeClock, SimClockRejectsBackwardTime) {
  SimClock clock(10.0);
  EXPECT_THROW(clock.advance_to(9.0), util::CheckError);
}

TEST(ServeClock, SimClockIsReadableFromOtherThreads) {
  SimClock clock(0.0);
  double seen = -1.0;
  std::thread reader([&] { seen = clock.now_s(); });
  reader.join();
  EXPECT_GE(seen, 0.0);
}

TEST(ServeClock, WallClockStartsNearZeroAndIsMonotone) {
  const WallClock clock;
  const double a = clock.now_s();
  const double b = clock.now_s();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  EXPECT_LT(a, 60.0);  // the epoch is the clock's own construction
}

}  // namespace
}  // namespace mlcr::serve
