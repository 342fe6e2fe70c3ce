// FaultPlan and FaultInjector: plan validation, backoff arithmetic, crash
// window sampling, and the injector's deterministic stream discipline.
#include "faults/fault_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "faults/injector.hpp"
#include "util/check.hpp"

namespace mlcr::faults {
namespace {

TEST(FaultPlan, DefaultPlanIsFaultlessAndValid) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.faultless());
  plan.validate(1);
  plan.validate(SIZE_MAX);
}

TEST(FaultPlan, AnyFaultKindMakesThePlanFaulted) {
  FaultPlan p1;
  p1.startup_failure_prob = 0.1;
  EXPECT_FALSE(p1.faultless());
  FaultPlan p2;
  p2.repack_failure_prob = 0.1;
  EXPECT_FALSE(p2.faultless());
  FaultPlan p3;
  p3.timeout_s = 30.0;
  EXPECT_FALSE(p3.faultless());
  FaultPlan p4;
  p4.crashes.push_back({0, 1.0, 2.0});
  EXPECT_FALSE(p4.faultless());
  // A retry policy alone does not inject anything.
  FaultPlan p5;
  p5.retry.max_attempts = 3;
  EXPECT_TRUE(p5.faultless());
}

TEST(FaultPlan, ValidateRejectsMalformedPlans) {
  FaultPlan bad_prob;
  bad_prob.startup_failure_prob = 1.5;
  EXPECT_THROW(bad_prob.validate(1), util::CheckError);

  FaultPlan bad_timeout;
  bad_timeout.timeout_s = 0.0;
  EXPECT_THROW(bad_timeout.validate(1), util::CheckError);

  FaultPlan no_attempts;
  no_attempts.retry.max_attempts = 0;
  EXPECT_THROW(no_attempts.validate(1), util::CheckError);

  FaultPlan inverted;
  inverted.crashes.push_back({0, 5.0, 4.0});
  EXPECT_THROW(inverted.validate(1), util::CheckError);

  FaultPlan unsorted;
  unsorted.crashes.push_back({0, 5.0, 6.0});
  unsorted.crashes.push_back({1, 1.0, 2.0});
  EXPECT_THROW(unsorted.validate(2), util::CheckError);

  FaultPlan overlapping;
  overlapping.crashes.push_back({0, 1.0, 5.0});
  overlapping.crashes.push_back({0, 3.0, 7.0});
  EXPECT_THROW(overlapping.validate(1), util::CheckError);

  FaultPlan outside;
  outside.crashes.push_back({4, 1.0, 2.0});
  EXPECT_THROW(outside.validate(2), util::CheckError);
  outside.validate(5);  // large enough fleet: fine
}

TEST(RetryPolicy, BackoffIsExponentialCappedAndJittered) {
  // 0.5 s doubling per attempt, capped at 30 s, up to +10% jitter.
  EXPECT_DOUBLE_EQ(backoff_s(1, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(backoff_s(2, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(backoff_s(3, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(backoff_s(6, 0.0), 16.0);
  EXPECT_DOUBLE_EQ(backoff_s(7, 0.0), 30.0);  // capped
  EXPECT_DOUBLE_EQ(backoff_s(1, 0.5), 0.5 * 1.05);
  EXPECT_THROW((void)backoff_s(0, 0.0), util::CheckError);
}

TEST(SampleCrashWindows, ProducesValidPlansAndRespectsTheCap) {
  util::Rng rng(7);
  const std::size_t nodes = 8;
  const std::size_t cap = 2;
  const auto windows =
      sample_domain_crash_windows(nodes, 1000.0, 1.5, 30.0, cap, {}, rng);
  FaultPlan plan;
  plan.crashes = windows;
  plan.validate(nodes);  // sorted, non-inverted, non-overlapping per node

  // At no down_at are more than `cap` windows simultaneously open.
  for (const CrashWindow& w : windows) {
    std::size_t down = 0;
    for (const CrashWindow& o : windows)
      if (o.down_at <= w.down_at && o.up_at > w.down_at) ++down;
    EXPECT_LE(down, cap);
  }
}

TEST(SampleCrashWindows, DeterministicForEqualStreams) {
  util::Rng a(99);
  util::Rng b(99);
  const auto wa = sample_domain_crash_windows(4, 500.0, 2.0, 20.0, 1, {}, a);
  const auto wb = sample_domain_crash_windows(4, 500.0, 2.0, 20.0, 1, {}, b);
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    EXPECT_EQ(wa[i].node, wb[i].node);
    EXPECT_DOUBLE_EQ(wa[i].down_at, wb[i].down_at);
    EXPECT_DOUBLE_EQ(wa[i].up_at, wb[i].up_at);
  }
}

TEST(SampleCrashWindows, ZeroRateYieldsNoWindows) {
  util::Rng rng(1);
  EXPECT_TRUE(
      sample_domain_crash_windows(4, 100.0, 0.0, 10.0, 1, {}, rng).empty());
}

TEST(FaultInjector, DrawsMatchAnEqualStreamAndCount) {
  FaultPlan plan;
  plan.startup_failure_prob = 0.5;
  plan.repack_failure_prob = 0.25;
  plan.retry.max_attempts = 4;

  util::Rng parent_a(31337);
  util::Rng parent_b(31337);
  FaultInjector injector(plan, parent_a.split());
  util::Rng probe = parent_b.split();

  std::size_t startup_failures = 0;
  for (int i = 0; i < 64; ++i) {
    const bool expected = probe.bernoulli(plan.startup_failure_prob);
    EXPECT_EQ(injector.draw_startup_failure(), expected);
    if (expected) ++startup_failures;
  }
  // Both outcomes occurred, so the comparison above checked each of them.
  EXPECT_GT(startup_failures, 0U);
  EXPECT_LT(startup_failures, 64U);

  const bool repack = probe.bernoulli(plan.repack_failure_prob);
  EXPECT_EQ(injector.draw_repack_failure(), repack);

  const double u = probe.uniform();
  EXPECT_DOUBLE_EQ(injector.draw_backoff(1), backoff_s(1, u));
  // One jitter draw per backoff: the next draw still matches the probe.
  EXPECT_EQ(injector.draw_startup_failure(),
            probe.bernoulli(plan.startup_failure_prob));
}

TEST(FaultInjector, RejectsMalformedPlans) {
  FaultPlan bad;
  bad.startup_failure_prob = -0.5;
  util::Rng parent(1);
  EXPECT_THROW(FaultInjector(bad, parent.split()), util::CheckError);
}

}  // namespace
}  // namespace mlcr::faults
