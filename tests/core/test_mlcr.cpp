#include "core/mlcr.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/trainer.hpp"
#include "obs/sink.hpp"
#include "obs/tracer.hpp"
#include "policies/runner.hpp"
#include "testing/fixtures.hpp"
#include "util/check.hpp"

namespace mlcr::core {
namespace {

using mlcr::testing::TinyWorld;

MlcrConfig tiny_mlcr() {
  MlcrConfig cfg = make_default_mlcr_config(/*num_slots=*/4,
                                            /*embed_dim=*/16);
  cfg.dqn.network.ffn_dim = 32;
  cfg.dqn.batch_size = 8;
  cfg.dqn.min_replay = 32;
  return cfg;
}

sim::Trace cycle_trace(const TinyWorld& world, int rounds) {
  std::vector<sim::Invocation> invs;
  double t = 0.0;
  for (int r = 0; r < rounds; ++r) {
    invs.push_back(TinyWorld::inv(world.fn_py_flask, t, 0.5));
    invs.push_back(TinyWorld::inv(world.fn_py_numpy, t + 30.0, 0.5));
    invs.push_back(TinyWorld::inv(world.fn_js, t + 60.0, 0.5));
    t += 90.0;
  }
  return sim::Trace(std::move(invs));
}

TEST(MlcrConfig, DefaultWiresDimensions) {
  const MlcrConfig cfg = make_default_mlcr_config(12, 32);
  EXPECT_EQ(cfg.encoder.num_slots, 12U);
  EXPECT_EQ(cfg.dqn.network.num_slots, 12U);
  EXPECT_EQ(cfg.dqn.network.feature_dim, cfg.encoder.feature_dim);
  EXPECT_EQ(cfg.dqn.network.embed_dim, 32U);
}

TEST(MlcrScheduler, RejectsMismatchedAgent) {
  const MlcrConfig cfg = tiny_mlcr();
  auto agent = std::make_shared<rl::DqnAgent>(cfg.dqn, util::Rng(1));
  StateEncoderConfig other = cfg.encoder;
  other.num_slots = 7;
  EXPECT_THROW(MlcrScheduler(agent, StateEncoder(other)), util::CheckError);
}

TEST(MlcrScheduler, UntrainedAgentProducesValidEpisodes) {
  TinyWorld world;
  const MlcrConfig cfg = tiny_mlcr();
  auto agent = std::make_shared<rl::DqnAgent>(cfg.dqn, util::Rng(2));
  auto spec = make_mlcr_system(agent, cfg.encoder);
  const sim::Trace trace = cycle_trace(world, 6);
  const auto s = policies::run_system(spec, world.functions, world.catalog,
                                      world.cost_model(), 4096.0, trace);
  EXPECT_EQ(s.invocations, trace.size());
  EXPECT_EQ(s.cold_starts + s.warm_l1 + s.warm_l2 + s.warm_l3, trace.size());
}

/// Keeps the `forced` arg of every dqn_inference instant.
class ForcedArgSink final : public obs::TraceSink {
 public:
  void write(const obs::TraceEvent& event) override {
    if (event.name != "dqn_inference") return;
    for (const obs::TraceArg& arg : event.args)
      if (arg.key == "forced") forced.push_back(arg.value);
  }
  std::vector<std::string> forced;
};

// The first arrival finds an empty pool, so only cold start is allowed
// (forced 1); later arrivals find a matching container (forced 0).
TEST(MlcrScheduler, TraceMarksSingleActionDecisions) {
  TinyWorld world;
  const MlcrConfig cfg = tiny_mlcr();
  auto agent = std::make_shared<rl::DqnAgent>(cfg.dqn, util::Rng(9));
  auto spec = make_mlcr_system(agent, cfg.encoder);
  const sim::Trace trace = cycle_trace(world, 4);
  obs::Tracer tracer;
  const auto sink = std::make_shared<ForcedArgSink>();
  tracer.add_sink(sink);
  sim::ClusterEnv env = world.make_env();  // MLCR's LRU, 4096 MB
  env.set_tracer(&tracer);
  (void)policies::run_episode(env, *spec.scheduler, trace);
  ASSERT_EQ(sink->forced.size(), trace.size());
  EXPECT_EQ(sink->forced.front(), "1");
  std::size_t ones = 0;
  for (const std::string& v : sink->forced) {
    EXPECT_TRUE(v == "0" || v == "1") << v;
    ones += v == "1" ? 1 : 0;
  }
  EXPECT_GT(ones, 0U);
  EXPECT_LT(ones, trace.size());
}

TEST(MlcrTrainer, ImprovesOverEpisodesOnTinyWorld) {
  TinyWorld world;
  const MlcrConfig cfg = tiny_mlcr();
  auto agent = std::make_shared<rl::DqnAgent>(cfg.dqn, util::Rng(3));
  const StateEncoder encoder(cfg.encoder);
  auto env = world.make_env();
  const sim::Trace trace = cycle_trace(world, 8);

  TrainerConfig tc;
  tc.episodes = 10;
  tc.seed = 11;
  tc.train_every = 2;
  const TrainerReport report = train_agent(
      *agent, encoder, cfg.reward_scale_s, {&env}, {&trace}, tc);
  ASSERT_EQ(report.episode_total_latency_s.size(), 10U);
  EXPECT_GT(report.train_steps, 0U);
  // With epsilon annealed, the trained policy must beat the first
  // (near-random) episode.
  EXPECT_LT(report.episode_total_latency_s.back(),
            report.episode_total_latency_s.front());
}

TEST(MlcrTrainer, TrainedPolicyBeatsNaiveColdStartPolicy) {
  TinyWorld world;
  const MlcrConfig cfg = tiny_mlcr();
  auto agent = std::make_shared<rl::DqnAgent>(cfg.dqn, util::Rng(4));
  const StateEncoder encoder(cfg.encoder);
  auto env = world.make_env();
  const sim::Trace trace = cycle_trace(world, 8);
  TrainerConfig tc;
  tc.episodes = 10;
  tc.train_every = 2;
  (void)train_agent(*agent, encoder, cfg.reward_scale_s, {&env}, {&trace}, tc);

  auto spec = make_mlcr_system(agent, cfg.encoder);
  const auto mlcr = policies::run_system(spec, world.functions, world.catalog,
                                         world.cost_model(), 4096.0, trace);
  // All-cold baseline.
  double all_cold = 0.0;
  for (const auto& inv : trace.invocations())
    all_cold +=
        world.cost_model().cold_start(world.functions.get(inv.function))
            .total();
  EXPECT_LT(mlcr.total_latency_s, all_cold);
  EXPECT_LT(mlcr.cold_starts, trace.size());
}

TEST(LoadOrTrain, CachesModelAcrossCalls) {
  const MlcrConfig cfg = tiny_mlcr();
  rl::DqnAgent a(cfg.dqn, util::Rng(5));
  rl::DqnAgent b(cfg.dqn, util::Rng(6));
  const std::string path = ::testing::TempDir() + "/mlcr_cache_test.bin";
  std::filesystem::remove(path);

  int trained = 0;
  EXPECT_FALSE(load_or_train(a, path, [&] { ++trained; }));
  EXPECT_EQ(trained, 1);
  EXPECT_TRUE(load_or_train(b, path, [&] { ++trained; }));
  EXPECT_EQ(trained, 1) << "second call must hit the cache";

  const nn::Tensor state(6, cfg.encoder.feature_dim, 0.3F);
  EXPECT_TRUE(a.q_values(state) == b.q_values(state));
  std::filesystem::remove(path);
}

TEST(LoadOrTrain, RejectsIncompatibleCacheWithoutTouchingIt) {
  const MlcrConfig small = tiny_mlcr();
  MlcrConfig big = small;
  big.dqn.network.embed_dim = 24;
  const std::string path = ::testing::TempDir() + "/mlcr_cache_mismatch.bin";
  std::filesystem::remove(path);

  rl::DqnAgent a(small.dqn, util::Rng(7));
  (void)load_or_train(a, path, [] {});
  const auto bytes = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string before = bytes();
  ASSERT_FALSE(before.empty());

  rl::DqnAgent b(big.dqn, util::Rng(8));
  int trained = 0;
  EXPECT_THROW((void)load_or_train(b, path, [&] { ++trained; }),
               util::CheckError);
  EXPECT_EQ(trained, 0) << "a cache that fails to load must not be retrained";
  EXPECT_EQ(bytes(), before) << "a cache that fails to load must not change";
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace mlcr::core
