#include "core/state_encoder.hpp"

#include <gtest/gtest.h>

#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "testing/fixtures.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace mlcr::core {
namespace {

using mlcr::testing::TinyWorld;

class EncoderTest : public ::testing::Test {
 protected:
  TinyWorld world_;
  StateEncoderConfig config_ = [] {
    StateEncoderConfig c;
    c.num_slots = 4;
    return c;
  }();
  StateEncoder encoder_{config_};
};

TEST_F(EncoderTest, ShapesFollowConfig) {
  EXPECT_EQ(encoder_.num_tokens(), 6U);
  EXPECT_EQ(encoder_.num_actions(), 5U);

  auto env = world_.make_env();
  const sim::Trace trace = TinyWorld::make_trace(
      {TinyWorld::inv(world_.fn_py_flask, 0.0)});
  env.reset(trace);
  const EncodedState s = encoder_.encode(env, env.current(), 0.0);
  EXPECT_EQ(s.tokens.rows(), 6U);
  EXPECT_EQ(s.tokens.cols(), config_.feature_dim);
  EXPECT_EQ(s.mask.size(), 5U);
  EXPECT_EQ(s.slot_ids.size(), 4U);
}

TEST_F(EncoderTest, EmptyPoolMasksEverythingButCold) {
  auto env = world_.make_env();
  const sim::Trace trace = TinyWorld::make_trace(
      {TinyWorld::inv(world_.fn_py_flask, 0.0)});
  env.reset(trace);
  const EncodedState s = encoder_.encode(env, env.current(), 0.0);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(s.mask[i], 0);
  EXPECT_EQ(s.mask[4], 1) << "cold start always allowed";
}

TEST_F(EncoderTest, ReusableContainerIsUnmaskedAndMapped) {
  auto env = world_.make_env();
  const sim::Trace trace =
      TinyWorld::make_trace({TinyWorld::inv(world_.fn_py_flask, 0.0, 0.5),
                             TinyWorld::inv(world_.fn_py_numpy, 100.0)});
  env.reset(trace);
  (void)env.step(sim::Action::cold());
  const EncodedState s = encoder_.encode(env, env.current(), 0.0);
  EXPECT_EQ(s.mask[0], 1) << "L2 match must be actionable";
  EXPECT_NE(s.slot_ids[0], containers::kInvalidContainer);
  EXPECT_EQ(s.mask[1], 0);

  const sim::Action a = encoder_.to_sim_action(s, 0);
  EXPECT_EQ(a.kind, sim::Action::Kind::kReuse);
  EXPECT_EQ(a.container, s.slot_ids[0]);
}

TEST_F(EncoderTest, NoMatchContainerStaysMaskedButVisible) {
  auto env = world_.make_env();
  const sim::Trace trace =
      TinyWorld::make_trace({TinyWorld::inv(world_.fn_other_os, 0.0, 0.5),
                             TinyWorld::inv(world_.fn_py_flask, 100.0)});
  env.reset(trace);
  (void)env.step(sim::Action::cold());
  const EncodedState s = encoder_.encode(env, env.current(), 0.0);
  EXPECT_EQ(s.mask[0], 0) << "no-match container must be masked (Sec. IV-C)";
  // But its token is populated (is_slot flag set).
  EXPECT_FLOAT_EQ(s.tokens(rl::kFirstSlotTokenRow, 2), 1.0F);
}

TEST_F(EncoderTest, MatchingContainersSortBeforeOthers) {
  auto env = world_.make_env();
  const sim::Trace trace =
      TinyWorld::make_trace({TinyWorld::inv(world_.fn_js, 0.0, 0.5),
                             TinyWorld::inv(world_.fn_py_numpy, 50.0, 0.5),
                             TinyWorld::inv(world_.fn_py_numpy, 200.0)});
  env.reset(trace);
  (void)env.step(sim::Action::cold());
  (void)env.step(sim::Action::cold());
  // Pool now: a js container (L1 for py-numpy) and a py-numpy container
  // (L3). The L3 container must occupy slot 0.
  const EncodedState s = encoder_.encode(env, env.current(), 0.0);
  EXPECT_EQ(env.match_for(s.slot_ids[0], world_.fn_py_numpy),
            containers::MatchLevel::kL3);
  EXPECT_EQ(env.match_for(s.slot_ids[1], world_.fn_py_numpy),
            containers::MatchLevel::kL1);
  EXPECT_EQ(s.mask[0], 1);
  EXPECT_EQ(s.mask[1], 1);
}

TEST_F(EncoderTest, ToSimActionMapsColdAndEmptySlots) {
  auto env = world_.make_env();
  const sim::Trace trace = TinyWorld::make_trace(
      {TinyWorld::inv(world_.fn_py_flask, 0.0)});
  env.reset(trace);
  const EncodedState s = encoder_.encode(env, env.current(), 0.0);
  EXPECT_EQ(encoder_.to_sim_action(s, 4).kind, sim::Action::Kind::kColdStart);
  // Slot 2 is empty -> degrades to cold.
  EXPECT_EQ(encoder_.to_sim_action(s, 2).kind, sim::Action::Kind::kColdStart);
  EXPECT_THROW((void)encoder_.to_sim_action(s, 5), util::CheckError);
}

TEST_F(EncoderTest, TokenTypeFlagsAreOneHot) {
  auto env = world_.make_env();
  const sim::Trace trace =
      TinyWorld::make_trace({TinyWorld::inv(world_.fn_py_flask, 0.0, 0.5),
                             TinyWorld::inv(world_.fn_py_flask, 100.0)});
  env.reset(trace);
  (void)env.step(sim::Action::cold());
  const EncodedState s = encoder_.encode(env, env.current(), 0.0);
  EXPECT_FLOAT_EQ(s.tokens(0, 0), 1.0F);  // cluster
  EXPECT_FLOAT_EQ(s.tokens(0, 1), 0.0F);
  EXPECT_FLOAT_EQ(s.tokens(1, 1), 1.0F);  // function
  EXPECT_FLOAT_EQ(s.tokens(2, 2), 1.0F);  // occupied slot
  EXPECT_FLOAT_EQ(s.tokens(3, 2), 0.0F);  // empty slot
}

TEST_F(EncoderTest, ArrivalIntervalFeatureUsesPrevArrival) {
  auto env = world_.make_env();
  const sim::Trace trace = TinyWorld::make_trace(
      {TinyWorld::inv(world_.fn_py_flask, 10.0)});
  env.reset(trace);
  const EncodedState a = encoder_.encode(env, env.current(), 10.0);
  const EncodedState b = encoder_.encode(env, env.current(), 5.0);
  EXPECT_FLOAT_EQ(a.tokens(1, 11), 0.0F);
  // A 5 s gap over the encoder's 5 s interval scale.
  EXPECT_FLOAT_EQ(b.tokens(1, 11), 1.0F);
}

TEST_F(EncoderTest, RejectsTooSmallFeatureDim) {
  StateEncoderConfig bad;
  bad.feature_dim = 8;
  EXPECT_THROW(StateEncoder{bad}, util::CheckError);
}

// --- Node-health features (DESIGN.md §14). Cluster-token columns 8..11
// carry down-state, failed fraction, retry pressure and crash count — but
// only when StateEncoderConfig::encode_health is set, so existing trained
// agents keep a bit-identical observation.

TEST_F(EncoderTest, HealthColumnsStayZeroUnlessOptedIn) {
  auto env = world_.make_env();
  const sim::Trace trace = TinyWorld::make_trace(
      {TinyWorld::inv(world_.fn_py_flask, 0.0, 0.5)});
  env.reset(trace);
  (void)env.step(sim::Action::cold());
  ASSERT_TRUE(env.done());

  // A healthy env encodes bit-identically with and without the flag.
  StateEncoderConfig hcfg = config_;
  hcfg.encode_health = true;
  const StateEncoder health(hcfg);
  const auto probe = TinyWorld::inv(world_.fn_py_flask, 10.0);
  const EncodedState plain = encoder_.encode(env, probe, 0.0);
  const EncodedState aware = health.encode(env, probe, 0.0);
  for (std::size_t r = 0; r < encoder_.num_tokens(); ++r)
    for (std::size_t c = 0; c < config_.feature_dim; ++c)
      EXPECT_FLOAT_EQ(plain.tokens(r, c), aware.tokens(r, c))
          << "row " << r << " col " << c;

  // Even on a crashed node the legacy encoder writes nothing there.
  env.crash(env.now());
  const EncodedState down = encoder_.encode(env, probe, 0.0);
  for (std::size_t c = 8; c <= 11; ++c)
    EXPECT_FLOAT_EQ(down.tokens(0, c), 0.0F) << "col " << c;
}

TEST_F(EncoderTest, HealthBlockEncodesCrashPartialAndInjectorPressure) {
  StateEncoderConfig hcfg = config_;
  hcfg.encode_health = true;
  const StateEncoder health(hcfg);

  auto env = world_.make_env();
  faults::FaultPlan plan;
  plan.startup_failure_prob = 1.0;
  plan.retry.max_attempts = 2;
  faults::FaultInjector injector(plan, util::Rng(42));
  env.set_fault_injector(&injector);

  const sim::Trace trace = TinyWorld::make_trace(
      {TinyWorld::inv(world_.fn_py_flask, 0.0, 0.5)});
  env.reset(trace);
  const auto probe = TinyWorld::inv(world_.fn_py_flask, 10.0);

  // Healthy, no faults seen yet: the whole block is zero.
  const EncodedState clean = health.encode(env, probe, 0.0);
  for (std::size_t c = 8; c <= 11; ++c)
    EXPECT_FLOAT_EQ(clean.tokens(0, c), 0.0F) << "col " << c;

  // Both attempts fail: one retry, and the invocation fails.
  const sim::StepResult failed = env.step(sim::Action::cold());
  ASSERT_TRUE(failed.failed);
  ASSERT_EQ(failed.attempts, 2U);
  ASSERT_TRUE(env.done());

  // A full crash reads 1.0, a partial crash 0.5, and the crash counter
  // scales by 1/4; failed fraction and retry pressure are over invocations.
  env.crash(env.now());
  const EncodedState full = health.encode(env, probe, 0.0);
  EXPECT_FLOAT_EQ(full.tokens(0, 8), 1.0F);
  EXPECT_FLOAT_EQ(full.tokens(0, 9), 1.0F);   // 1 failed / 1 invocation
  EXPECT_FLOAT_EQ(full.tokens(0, 10), 1.0F);  // 1 retry / 1 invocation
  EXPECT_FLOAT_EQ(full.tokens(0, 11), 0.25F);  // 1 crash / 4

  env.recover(env.now());
  env.crash(env.now(), /*partial=*/true);
  const EncodedState partial = health.encode(env, probe, 0.0);
  EXPECT_FLOAT_EQ(partial.tokens(0, 8), 0.5F);
  EXPECT_FLOAT_EQ(partial.tokens(0, 11), 0.5F);  // 2 crashes / 4

  // Retry pressure and crashes are read only with an injector attached.
  env.set_fault_injector(nullptr);
  const EncodedState detached = health.encode(env, probe, 0.0);
  EXPECT_FLOAT_EQ(detached.tokens(0, 10), 0.0F);
  EXPECT_FLOAT_EQ(detached.tokens(0, 11), 0.0F);

  // A new episode starts with no crashes.
  env.set_fault_injector(&injector);
  env.reset(trace);
  EXPECT_FLOAT_EQ(health.encode(env, probe, 0.0).tokens(0, 11), 0.0F);
}

}  // namespace
}  // namespace mlcr::core
