// core::train_agent: its outcome pinned bit for bit against
// tests/core/train_golden.txt (recorded by make_train_golden before the
// training loop was folded into one), and its trace output on the
// kTrainPid tracks.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/train_golden.hpp"
#include "obs/schema_check.hpp"
#include "obs/sink.hpp"
#include "obs/tracer.hpp"
#include "util/check.hpp"

namespace mlcr::core {
namespace {

using mlcr::testing::TinyWorld;

/// The golden file's lines for one network, in file order.
std::vector<std::string> read_golden(bool use_attention) {
  std::ifstream in(TRAIN_GOLDEN_FILE);
  EXPECT_TRUE(in.good()) << "cannot open " << TRAIN_GOLDEN_FILE;
  const std::string prefix = use_attention ? "attention " : "mlp ";
  std::vector<std::string> lines;
  std::string text;
  while (std::getline(in, text))
    if (text.rfind(prefix, 0) == 0) lines.push_back(text);
  return lines;
}

// Exact equality: greedy seeding, the epsilon-greedy rollout, every
// gradient step, both validations and the checkpoint restore must replay
// the recorded run. On a platform whose libm rounds expf differently,
// regenerate the file there with make_train_golden.
void expect_matches_golden(bool use_attention) {
  const std::vector<std::string> want = read_golden(use_attention);
  const std::vector<std::string> got = golden::run_lines(use_attention);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

TEST(TrainGolden, AttentionNetworkMatchesGolden) {
  expect_matches_golden(/*use_attention=*/true);
}

TEST(TrainGolden, MlpAblationMatchesGolden) {
  expect_matches_golden(/*use_attention=*/false);
}

TEST(TrainerTrace, EpisodesEpsilonAndValidationsOnTrainTracks) {
  const TinyWorld world;
  const MlcrConfig cfg = golden::mlcr_config(/*use_attention=*/true);
  rl::DqnAgent agent(cfg.dqn, util::Rng(golden::kNetworkSeed));
  const StateEncoder encoder(cfg.encoder);
  auto env = world.make_env();
  const sim::Trace trace = golden::cycle_trace(world, 8);

  std::ostringstream out;
  obs::Tracer tracer;
  tracer.add_sink(std::make_shared<obs::ChromeTraceSink>(out));
  TrainerConfig tc;
  tc.episodes = 7;
  tc.seed = golden::kTrainSeed;
  tc.train_every = 3;
  tc.tracer = &tracer;
  const TrainerReport report =
      train_agent(agent, encoder, cfg.reward_scale_s, {&env}, {&trace}, tc);
  tracer.close();

  const std::string json = out.str();
  const auto checked = obs::check_trace_json(json);
  ASSERT_TRUE(checked.ok()) << checked.errors.front();
  EXPECT_NE(json.find("\"env-steps\""), std::string::npos);
  EXPECT_NE(json.find("\"gradient-steps\""), std::string::npos);
  EXPECT_EQ(checked.span_counts.at("episode"), tc.episodes);
  // One epsilon sample at every env step divisible by train_every.
  EXPECT_EQ(checked.counter_counts.at("epsilon"),
            (report.env_steps + tc.train_every - 1) / tc.train_every);
  ASSERT_FALSE(report.validation_latency_s.empty());
  EXPECT_EQ(checked.instant_counts.at("validation"),
            report.validation_latency_s.size());
}

// A learning rate that blows the weights up makes a later batch loss
// non-finite: training stops there, loudly, and the caller's tracer is no
// longer attached to the agent.
TEST(TrainerTrace, DivergenceThrowsAndDetachesTheTracer) {
  const TinyWorld world;
  MlcrConfig cfg = golden::mlcr_config(/*use_attention=*/true);
  cfg.dqn.learning_rate = 1e30F;
  rl::DqnAgent agent(cfg.dqn, util::Rng(golden::kNetworkSeed));
  const StateEncoder encoder(cfg.encoder);
  auto env = world.make_env();
  const sim::Trace trace = golden::cycle_trace(world, 8);

  std::ostringstream out;
  obs::Tracer tracer;
  tracer.add_sink(std::make_shared<obs::ChromeTraceSink>(out));
  TrainerConfig tc;
  tc.episodes = 4;
  tc.tracer = &tracer;
  try {
    (void)train_agent(agent, encoder, cfg.reward_scale_s, {&env}, {&trace},
                      tc);
    FAIL() << "training with diverging weights must not finish";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite batch loss"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(agent.tracer(), nullptr);
}

}  // namespace
}  // namespace mlcr::core
