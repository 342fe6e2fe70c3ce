// Fault injection in the single-node simulator: bit-identity at zero
// faults, startup-failure retries, timeouts, repack failures, node
// crash/recovery, and the hardened offer() diagnostics.
#include <gtest/gtest.h>

#include <string>

#include "faults/injector.hpp"
#include "policies/baselines.hpp"
#include "policies/runner.hpp"
#include "testing/fixtures.hpp"
#include "util/check.hpp"

namespace mlcr {
namespace {

using testing::TinyWorld;

/// True when throwing `fn` produces a CheckError whose message contains
/// `needle` (the diagnostics the hardened offer()/validate_trace promise).
template <typename Fn>
::testing::AssertionResult throws_mentioning(Fn fn, const std::string& needle) {
  try {
    fn();
  } catch (const util::CheckError& e) {
    if (std::string(e.what()).find(needle) != std::string::npos)
      return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "CheckError thrown but message lacks '" << needle
           << "': " << e.what();
  }
  return ::testing::AssertionFailure() << "no CheckError thrown";
}

TEST(FaultEnv, FaultlessPlanIsBitIdenticalToNoInjector) {
  TinyWorld world;
  std::vector<sim::Invocation> invs;
  double t = 0.0;
  for (int r = 0; r < 6; ++r) {
    invs.push_back(TinyWorld::inv(world.fn_py_flask, t, 0.4));
    invs.push_back(TinyWorld::inv(world.fn_py_numpy, t + 2.0, 0.4));
    invs.push_back(TinyWorld::inv(world.fn_js, t + 4.0, 0.3));
    t += 10.0;
  }
  const sim::Trace trace(std::move(invs));

  auto plain_env = world.make_env();
  policies::GreedyMatchScheduler plain_sched;
  (void)policies::run_episode(plain_env, plain_sched, trace);

  auto faulted_env = world.make_env();
  util::Rng parent(1234);
  faults::FaultInjector injector(faults::FaultPlan{}, parent.split());
  faulted_env.set_fault_injector(&injector);
  policies::GreedyMatchScheduler faulted_sched;
  (void)policies::run_episode(faulted_env, faulted_sched, trace);

  // Exact (==) comparison: a faultless plan must not perturb a single bit.
  EXPECT_EQ(plain_env.metrics().latencies(), faulted_env.metrics().latencies());
  EXPECT_EQ(plain_env.metrics().cold_start_count(),
            faulted_env.metrics().cold_start_count());
  EXPECT_EQ(plain_env.metrics().total_latency_s(),
            faulted_env.metrics().total_latency_s());
  EXPECT_EQ(faulted_env.metrics().failed_count(), 0U);
  EXPECT_EQ(injector.counters().injected(), 0U);
}

TEST(FaultEnv, StartupFailureExhaustsRetriesAndFailsTheInvocation) {
  TinyWorld world;
  faults::FaultPlan plan;
  plan.startup_failure_prob = 1.0;
  plan.retry.max_attempts = 2;
  plan.retry.base_backoff_s = 0.5;
  plan.retry.jitter_frac = 0.0;  // deterministic latency arithmetic

  auto env = world.make_env();
  util::Rng parent(7);
  faults::FaultInjector injector(plan, parent.split());
  env.set_fault_injector(&injector);

  const sim::Trace trace =
      TinyWorld::make_trace({TinyWorld::inv(world.fn_py_flask, 0.0, 0.5)});
  env.reset(trace);
  const double cold_s =
      env.cost_model().cold_start(world.functions.get(world.fn_py_flask))
          .total();
  const sim::StepResult result = env.step(sim::Action::cold());

  EXPECT_TRUE(result.failed);
  EXPECT_EQ(result.attempts, 2U);
  EXPECT_EQ(result.container, containers::kInvalidContainer);
  // Two failed attempts plus one (jitter-free) backoff.
  EXPECT_DOUBLE_EQ(result.latency_s, 2.0 * cold_s + 0.5);

  const auto& m = env.metrics();
  EXPECT_EQ(m.failed_count(), 1U);
  EXPECT_EQ(m.retry_count(), 1U);
  EXPECT_EQ(m.cold_start_count(), 0U);  // failed records leave every bucket
  EXPECT_TRUE(m.latencies().empty());
  EXPECT_DOUBLE_EQ(m.latency_p99(), 0.0);
  EXPECT_DOUBLE_EQ(m.goodput(), 0.0);
  EXPECT_TRUE(env.pool().empty());  // nothing ever started

  EXPECT_EQ(injector.counters().startup_failures, 2U);
  EXPECT_EQ(injector.counters().retries, 1U);
  EXPECT_EQ(injector.counters().failed_invocations, 1U);
}

TEST(FaultEnv, RetriedOutcomesMatchAProbeOfTheSameStream) {
  TinyWorld world;
  faults::FaultPlan plan;
  plan.startup_failure_prob = 0.5;
  plan.retry.max_attempts = 3;

  auto env = world.make_env();
  util::Rng parent_a(4242);
  util::Rng parent_b(4242);
  faults::FaultInjector injector(plan, parent_a.split());
  util::Rng probe = parent_b.split();
  env.set_fault_injector(&injector);

  std::vector<sim::Invocation> invs;
  for (int i = 0; i < 20; ++i)
    invs.push_back(TinyWorld::inv(world.fn_py_flask, 10.0 * i, 0.1));
  const sim::Trace trace(std::move(invs));
  const double cold_s =
      env.cost_model().cold_start(world.functions.get(world.fn_py_flask))
          .total();

  env.reset(trace);
  while (!env.done()) {
    // Replay the documented draw order against a probe of an equal stream:
    // one Bernoulli per cold attempt, one jitter draw per backoff.
    double expected_latency = 0.0;
    std::size_t expected_attempts = 1;
    bool expected_failed = false;
    for (;;) {
      if (!probe.bernoulli(plan.startup_failure_prob)) {
        expected_latency += cold_s;
        break;
      }
      expected_latency += cold_s;
      if (expected_attempts >= plan.retry.max_attempts) {
        expected_failed = true;
        break;
      }
      expected_latency +=
          plan.retry.backoff_s(expected_attempts, probe.uniform());
      ++expected_attempts;
    }
    const sim::StepResult result = env.step(sim::Action::cold());
    EXPECT_EQ(result.failed, expected_failed);
    EXPECT_EQ(result.attempts, expected_attempts);
    EXPECT_DOUBLE_EQ(result.latency_s, expected_latency);
  }
  EXPECT_EQ(env.metrics().retry_count(), injector.counters().retries);
  EXPECT_EQ(env.metrics().failed_count(),
            injector.counters().failed_invocations);
}

TEST(FaultEnv, TimeoutKillsTheAttemptAtTheDeadline) {
  TinyWorld world;
  auto env = world.make_env();
  const double cold_s =
      env.cost_model().cold_start(world.functions.get(world.fn_py_flask))
          .total();
  faults::FaultPlan plan;
  plan.timeout_s = cold_s + 0.2;  // exec <= 0.2 s fits, longer blows it

  util::Rng parent(9);
  faults::FaultInjector injector(plan, parent.split());
  env.set_fault_injector(&injector);

  const sim::Trace trace = TinyWorld::make_trace(
      {TinyWorld::inv(world.fn_py_flask, 0.0, 0.1),     // fits the deadline
       TinyWorld::inv(world.fn_py_flask, 100.0, 5.0)});  // blows it
  env.reset(trace);
  const sim::StepResult ok = env.step(sim::Action::cold());
  EXPECT_FALSE(ok.failed);
  EXPECT_DOUBLE_EQ(ok.latency_s, cold_s);

  const sim::StepResult killed = env.step(sim::Action::cold());
  EXPECT_TRUE(killed.failed);
  EXPECT_EQ(killed.attempts, 1U);  // default policy: no retries
  EXPECT_DOUBLE_EQ(killed.latency_s, *plan.timeout_s);
  EXPECT_EQ(injector.counters().timeouts, 1U);
  EXPECT_EQ(env.metrics().failed_count(), 1U);
}

TEST(FaultEnv, RepackFailureDegradesToColdButL3IsExempt) {
  TinyWorld world;
  faults::FaultPlan plan;
  plan.repack_failure_prob = 1.0;

  auto env = world.make_env();
  util::Rng parent(11);
  faults::FaultInjector injector(plan, parent.split());
  env.set_fault_injector(&injector);

  const sim::Trace trace = TinyWorld::make_trace(
      {TinyWorld::inv(world.fn_py_flask, 0.0, 0.5),
       TinyWorld::inv(world.fn_py_numpy, 10.0, 0.5),
       TinyWorld::inv(world.fn_py_numpy, 20.0, 0.5)});
  env.reset(trace);

  const sim::StepResult first = env.step(sim::Action::cold());
  ASSERT_FALSE(first.failed);
  const containers::ContainerId parked = first.container;

  // L2 repack: the swap fails, the candidate dies, the start degrades to a
  // cold start that still pays the attempted swap's cleaner time.
  const auto& numpy = world.functions.get(world.fn_py_numpy);
  const double swap_s =
      env.cost_model().warm_start(numpy, containers::MatchLevel::kL2)
          .cleaner_s;
  const double cold_s = env.cost_model().cold_start(numpy).total();
  const sim::StepResult degraded = env.step(sim::Action::reuse(parked));
  EXPECT_TRUE(degraded.cold);
  EXPECT_EQ(degraded.match, containers::MatchLevel::kNoMatch);
  EXPECT_DOUBLE_EQ(degraded.latency_s, swap_s + cold_s);
  EXPECT_EQ(env.pool().find(parked), nullptr);  // candidate destroyed
  EXPECT_EQ(injector.counters().repack_failures, 1U);

  // L3 reuse swaps no volumes, so it cannot repack-fail even at prob 1.
  const sim::StepResult l3 = env.step(sim::Action::reuse(degraded.container));
  EXPECT_FALSE(l3.cold);
  EXPECT_EQ(l3.match, containers::MatchLevel::kL3);
  EXPECT_EQ(injector.counters().repack_failures, 1U);
}

TEST(FaultEnv, CrashKillsInFlightWorkAndRecoveryStartsCold) {
  TinyWorld world;
  auto env = world.make_env();
  util::Rng parent(13);
  faults::FaultPlan plan;
  plan.startup_failure_prob = 0.0;
  plan.crashes.push_back({0, 10.0, 30.0});  // documented in the plan only;
  faults::FaultInjector injector(plan, parent.split());
  env.set_fault_injector(&injector);  // the env is crashed explicitly here

  env.reset_streaming();
  env.offer(TinyWorld::inv(world.fn_py_flask, 0.0, 100.0));
  const sim::StepResult running = env.step(sim::Action::cold());
  ASSERT_FALSE(running.failed);
  ASSERT_EQ(env.busy_count(), 1U);

  env.crash(10.0);
  EXPECT_TRUE(env.down());
  EXPECT_EQ(env.busy_count(), 0U);  // in-flight execution killed
  EXPECT_TRUE(env.pool().empty());  // warm pool lost
  EXPECT_EQ(env.metrics().failed_count(), 1U);  // retroactively failed
  EXPECT_TRUE(env.metrics().latencies().empty());
  EXPECT_EQ(injector.counters().crashes, 1U);
  EXPECT_EQ(injector.counters().failed_invocations, 1U);

  // Down nodes reject work but their clock still advances across the
  // window (the serving janitor advances idle nodes' clocks).
  EXPECT_TRUE(throws_mentioning(
      [&] { env.offer(TinyWorld::inv(world.fn_py_flask, 15.0, 0.5)); },
      "crashed"));
  EXPECT_NO_THROW(env.advance_idle(20.0));
  EXPECT_THROW(env.crash(21.0), util::CheckError);  // already down

  env.recover(30.0);
  EXPECT_FALSE(env.down());
  EXPECT_EQ(injector.counters().recoveries, 1U);
  EXPECT_THROW(env.recover(31.0), util::CheckError);  // already healthy

  // The node rejoins with an empty pool: the next start is cold.
  env.offer(TinyWorld::inv(world.fn_py_flask, 40.0, 0.5));
  const sim::StepResult after = env.step(sim::Action::cold());
  EXPECT_TRUE(after.cold);
  EXPECT_FALSE(after.failed);
  env.finish_streaming();
  EXPECT_EQ(env.metrics().invocation_count(), 2U);
  EXPECT_DOUBLE_EQ(env.metrics().goodput(), 0.5);
}

TEST(FaultEnv, FinishStreamingDrainsOutstandingRetriedStarts) {
  TinyWorld world;
  faults::FaultPlan plan;
  plan.startup_failure_prob = 0.5;
  plan.retry.max_attempts = 3;

  auto env = world.make_env();
  util::Rng parent(17);
  faults::FaultInjector injector(plan, parent.split());
  env.set_fault_injector(&injector);

  env.reset_streaming();
  for (int i = 0; i < 16; ++i) {
    env.offer(TinyWorld::inv(world.fn_py_flask, 5.0 * i, 20.0));
    (void)env.step(sim::Action::cold());
  }
  // Several retried starts are still executing here; draining them must
  // keep every invariant (finish_streaming audits in checked builds).
  EXPECT_NO_THROW(env.finish_streaming());
  const auto& m = env.metrics();
  EXPECT_EQ(m.invocation_count(), 16U);
  EXPECT_EQ(m.latencies().size(), 16U - m.failed_count());
  EXPECT_EQ(m.retry_count(), injector.counters().retries);
  EXPECT_NO_THROW(env.audit());
}

TEST(FaultEnv, OfferDiagnosticsNameTheOffendingInvocation) {
  TinyWorld world;
  auto env = world.make_env();
  env.reset_streaming();

  sim::Invocation unknown = TinyWorld::inv(world.fn_py_flask, 0.0, 0.5);
  unknown.function = static_cast<sim::FunctionTypeId>(world.functions.size());
  unknown.seq = 7;
  EXPECT_TRUE(throws_mentioning([&] { env.offer(unknown); },
                                "unknown function"));
  EXPECT_TRUE(throws_mentioning([&] { env.offer(unknown); }, "seq 7"));

  env.offer(TinyWorld::inv(world.fn_py_flask, 5.0, 0.5));
  (void)env.step(sim::Action::cold());
  EXPECT_TRUE(throws_mentioning(
      [&] { env.offer(TinyWorld::inv(world.fn_py_flask, 1.0, 0.5)); },
      "arrival order"));
  EXPECT_TRUE(throws_mentioning(
      [&] { env.offer(TinyWorld::inv(world.fn_py_flask, 1.0, 0.5)); },
      "invocation 1"));
}

}  // namespace
}  // namespace mlcr
