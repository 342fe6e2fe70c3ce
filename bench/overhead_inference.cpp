// Sec. VI-D reproduction: the runtime overhead MLCR adds per scheduling
// decision. The paper reports 3-4 ms per inference on a V100; our scaled-down
// CPU network must land in the same "negligible against multi-second cold
// starts" regime. Also measures the matrix-product kernel layer by layer,
// state encoding, Table-I matching, a DQN gradient step, and raw simulator
// throughput.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

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
  /// A pool with at least num_slots idle containers, for the occupancy
  /// sweep: every invocation cold-starts until that many sit idle.
  std::unique_ptr<sim::ClusterEnv> full_env;

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
    env_cfg.pool_capacity_mb = 65536.0;
    full_env = std::make_unique<sim::ClusterEnv>(
        suite.bench.functions, suite.bench.catalog, suite.cost, env_cfg,
        [] { return std::make_unique<containers::LruEviction>(); });
    full_env->reset(trace);
    while (!full_env->done() &&
           full_env->pool().idle_containers().size() < cfg.encoder.num_slots)
      (void)full_env->step(sim::Action::cold());
  }
};

OverheadFixture& fixture() {
  static OverheadFixture f;
  return f;
}

// The forward pass's cost by warm-pool occupancy: the first `occupied` slot
// rows come from the fixture's full pool, the rest are empty (zero rows, as
// the encoder leaves them). States are encoded with the action mask off (the
// Sec. IV-C ablation), so every state allows all actions and each decision
// runs the network; a single-action mask would be decided without it.
void BM_DqnInference(benchmark::State& state) {
  auto& f = fixture();
  const auto occupied = static_cast<std::size_t>(state.range(0));
  core::StateEncoderConfig unmasked = f.cfg.encoder;
  unmasked.mask_invalid_actions = false;
  const sim::ClusterEnv& env = *f.full_env;
  auto encoded = core::StateEncoder(unmasked).encode(env, env.current(), 0.0);
  if (env.pool().idle_containers().size() < occupied) {
    state.SkipWithError("the fixture's pool has too few idle containers");
    return;
  }
  for (std::size_t s = occupied; s < unmasked.num_slots; ++s)
    std::fill_n(encoded.tokens.row(rl::kFirstSlotTokenRow + s),
                encoded.tokens.cols(), 0.0F);
  if (rl::sole_allowed_action(encoded.mask)) {
    state.SkipWithError("single-action mask: decided without the network");
    return;
  }
  // One workspace across calls, as each MLCR scheduler keeps its own.
  rl::InferWorkspace ws(f.cfg.dqn.network);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.agent->greedy_action(encoded.tokens, encoded.mask, ws));
  }
}
BENCHMARK(BM_DqnInference)
    ->ArgName("occupied")
    ->Arg(0)
    ->Arg(4)
    ->Arg(12)
    ->Arg(24)
    ->Unit(benchmark::kMicrosecond);

// nn::gemm at the default network's products: (k, n) = input projection
// 16x48, Q/K/V/out projections 48x48, FFN 48x96 and 96x48, attention
// scores 24x8 (inference's 1-8 live keys, padded to one 8-float panel) and
// 24x26 (training's, every key), attention-times-values 26x24 and the value
// head 48x1. m is the row count: 1-8 covers inference's live rows, 26 every
// token row (training, a full pool).
// Registered in main() once per shape and gemm body the CPU runs, so a
// kernel change names the layer and body it moved.
void BM_Gemm(benchmark::State& state, nn::detail::GemmFn body, std::size_t k,
             std::size_t n) {
  const auto m = static_cast<std::size_t>(state.range(0));
  util::Rng rng(11);
  const nn::Tensor a = nn::Tensor::he_uniform(m, k, rng);
  const nn::Tensor b = nn::Tensor::he_uniform(k, n, rng);
  nn::Tensor c(m, n);
  for (auto _ : state) {
    body(a.data(), k, b.data(), n, nullptr, c.data(), n, m, k, n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
}

void register_gemm_benches() {
  const std::size_t shapes[][2] = {{16, 48}, {48, 48}, {48, 96}, {24, 8},
                                   {96, 48}, {24, 26}, {26, 24}, {48, 1}};
  for (const nn::detail::GemmBody& body : nn::detail::gemm_bodies())
    for (const auto& kn : shapes) {
      const std::string name = std::string("BM_Gemm/") + body.isa + "/k:" +
                               std::to_string(kn[0]) + "/n:" +
                               std::to_string(kn[1]);
      benchmark::RegisterBenchmark(name.c_str(), BM_Gemm, body.run, kn[0],
                                   kn[1])
          ->ArgName("m")
          ->DenseRange(1, 8)
          ->Arg(26)
          ->Unit(benchmark::kNanosecond);
    }
}

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

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  register_gemm_benches();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
