#include "core/state_encoder.hpp"

#include <gtest/gtest.h>

#include "testing/fixtures.hpp"
#include "util/check.hpp"

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

}  // namespace
}  // namespace mlcr::core
