// Sec. VI-D reproduction: the runtime overhead MLCR adds per scheduling
// decision. The paper reports 3-4 ms per inference on a V100; our scaled-down
// CPU network must land in the same "negligible against multi-second cold
// starts" regime. Also measures state encoding, Table-I matching, a DQN
// gradient step, and raw simulator throughput.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "containers/matching.hpp"

namespace {

using namespace mlcr;

struct OverheadFixture {
  benchtools::Suite suite;
  core::MlcrConfig cfg = core::make_default_mlcr_config();
  core::StateEncoder encoder{cfg.encoder};
  std::shared_ptr<rl::DqnAgent> agent =
      std::make_shared<rl::DqnAgent>(cfg.dqn, util::Rng(1));
  sim::Trace trace;
  std::unique_ptr<sim::ClusterEnv> env;

  OverheadFixture() {
    util::Rng rng(7);
    trace = fstartbench::make_overall_workload(suite.bench, 200, rng);
    sim::EnvConfig env_cfg;
    env_cfg.pool_capacity_mb = 8192.0;
    env = std::make_unique<sim::ClusterEnv>(
        suite.bench.functions, suite.bench.catalog, suite.cost, env_cfg,
        [] { return std::make_unique<containers::LruEviction>(); });
    // Park some containers so states are representative.
    env->reset(trace);
    policies::GreedyMatchScheduler greedy;
    for (int i = 0; i < 60 && !env->done(); ++i)
      (void)env->step(greedy.decide(*env, env->current()));
  }
};

OverheadFixture& fixture() {
  static OverheadFixture f;
  return f;
}

void BM_DqnInference(benchmark::State& state) {
  auto& f = fixture();
  const auto encoded = f.encoder.encode(*f.env, f.env->current(), 0.0);
  // One workspace across calls, as each MLCR scheduler keeps its own.
  rl::InferWorkspace ws(f.cfg.dqn.network);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.agent->greedy_action(encoded.tokens, encoded.mask, ws));
  }
}
BENCHMARK(BM_DqnInference)->Unit(benchmark::kMicrosecond);

void BM_StateEncode(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.encoder.encode(*f.env, f.env->current(), 0.0));
  }
}
BENCHMARK(BM_StateEncode)->Unit(benchmark::kMicrosecond);

void BM_FullDecision(benchmark::State& state) {
  // encode + inference + action mapping: the end-to-end per-invocation cost
  // the paper's 3-4 ms figure corresponds to.
  auto& f = fixture();
  core::MlcrScheduler scheduler(f.agent, f.encoder);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.decide(*f.env, f.env->current()));
  }
}
BENCHMARK(BM_FullDecision)->Unit(benchmark::kMicrosecond);

void BM_TableOneMatch(benchmark::State& state) {
  auto& f = fixture();
  const auto& a = f.suite.bench.functions.get(0).image;
  const auto& b = f.suite.bench.functions.get(7).image;
  for (auto _ : state) {
    benchmark::DoNotOptimize(containers::match(a, b));
  }
}
BENCHMARK(BM_TableOneMatch)->Unit(benchmark::kNanosecond);

void BM_DqnTrainStep(benchmark::State& state) {
  auto& f = fixture();
  rl::DqnAgent agent(f.cfg.dqn, util::Rng(3));
  util::Rng rng(4);
  // Fill replay with representative transitions.
  const auto encoded = f.encoder.encode(*f.env, f.env->current(), 0.0);
  for (std::size_t i = 0; i < f.cfg.dqn.min_replay; ++i) {
    rl::Transition t;
    t.state = encoded.tokens;
    t.action = f.cfg.encoder.num_slots;  // cold
    t.reward = -0.5F;
    t.next_state = encoded.tokens;
    t.next_mask = encoded.mask;
    agent.observe(std::move(t));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.train_step(rng));
  }
}
BENCHMARK(BM_DqnTrainStep)->Unit(benchmark::kMillisecond);

void BM_SimulatorEpisodeGreedy(benchmark::State& state) {
  // Throughput floor: a full 200-invocation episode with the greedy
  // scheduler (no neural network).
  auto& f = fixture();
  sim::EnvConfig env_cfg;
  env_cfg.pool_capacity_mb = 8192.0;
  sim::ClusterEnv env(f.suite.bench.functions, f.suite.bench.catalog,
                      f.suite.cost, env_cfg,
                      [] { return std::make_unique<containers::LruEviction>(); });
  policies::GreedyMatchScheduler greedy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policies::run_episode(env, greedy, f.trace));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.trace.size()));
}
BENCHMARK(BM_SimulatorEpisodeGreedy)->Unit(benchmark::kMillisecond);

void BM_SimulatorEpisodeNullTracer(benchmark::State& state) {
  // The ISSUE's "zero overhead when no sink attached" claim: identical to
  // BM_SimulatorEpisodeGreedy except a sink-less tracer is attached, so
  // every instrumentation site takes its guarded-pointer fast path. Compare
  // against BM_SimulatorEpisodeGreedy; the gap must stay within noise
  // (acceptance bound: <= 1%).
  auto& f = fixture();
  sim::EnvConfig env_cfg;
  env_cfg.pool_capacity_mb = 8192.0;
  sim::ClusterEnv env(f.suite.bench.functions, f.suite.bench.catalog,
                      f.suite.cost, env_cfg,
                      [] { return std::make_unique<containers::LruEviction>(); });
  obs::Tracer tracer;  // no sinks: enabled() == false
  env.set_tracer(&tracer);
  policies::GreedyMatchScheduler greedy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policies::run_episode(env, greedy, f.trace));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.trace.size()));
}
BENCHMARK(BM_SimulatorEpisodeNullTracer)->Unit(benchmark::kMillisecond);

void BM_SimulatorEpisodeTraced(benchmark::State& state) {
  // Upper bound: full lifecycle tracing into an in-memory Chrome sink. This
  // is the price of --trace, not of default runs.
  auto& f = fixture();
  sim::EnvConfig env_cfg;
  env_cfg.pool_capacity_mb = 8192.0;
  sim::ClusterEnv env(f.suite.bench.functions, f.suite.bench.catalog,
                      f.suite.cost, env_cfg,
                      [] { return std::make_unique<containers::LruEviction>(); });
  policies::GreedyMatchScheduler greedy;
  for (auto _ : state) {
    state.PauseTiming();
    std::ostringstream out;
    obs::Tracer tracer;
    tracer.add_sink(std::make_shared<obs::ChromeTraceSink>(out));
    env.set_tracer(&tracer);
    state.ResumeTiming();
    benchmark::DoNotOptimize(policies::run_episode(env, greedy, f.trace));
  }
  env.set_tracer(nullptr);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.trace.size()));
}
BENCHMARK(BM_SimulatorEpisodeTraced)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
