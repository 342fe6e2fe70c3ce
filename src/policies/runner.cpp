#include "policies/runner.hpp"

#include "containers/matching.hpp"

namespace mlcr::policies {

EpisodeSummary summarize_env(const sim::ClusterEnv& env,
                             std::string scheduler_name) {
  const auto& m = env.metrics();
  EpisodeSummary s;
  s.scheduler = std::move(scheduler_name);
  s.invocations = m.invocation_count();
  s.total_latency_s = m.total_latency_s();
  s.average_latency_s = m.average_latency_s();
  s.cold_starts = m.cold_start_count();
  s.warm_l1 = m.warm_starts_at(containers::MatchLevel::kL1);
  s.warm_l2 = m.warm_starts_at(containers::MatchLevel::kL2);
  s.warm_l3 = m.warm_starts_at(containers::MatchLevel::kL3);
  s.peak_pool_mb = env.pool().peak_used_mb();
  s.evictions = env.pool().eviction_count();
  s.rejections = env.pool().rejection_count();
  s.failed = m.failed_count();
  s.retries = m.retry_count();
  return s;
}

EpisodeSummary run_episode(sim::ClusterEnv& env, Scheduler& scheduler,
                           const sim::Trace& trace) {
  env.reset(trace);
  scheduler.on_episode_start(env);
  while (!env.done()) {
    const sim::Invocation& inv = env.current();
    const sim::Action action = scheduler.decide(env, inv);
    const sim::StepResult result = env.step(action);
    scheduler.on_step_result(env, result);
  }
  return summarize_env(env, scheduler.name());
}

EpisodeSummary run_system(const SystemSpec& spec,
                          const sim::FunctionTable& functions,
                          const containers::PackageCatalog& catalog,
                          const sim::StartupCostModel& cost_model,
                          double pool_capacity_mb, const sim::Trace& trace) {
  sim::EnvConfig config;
  config.pool_capacity_mb = pool_capacity_mb;
  config.keep_alive_ttl_s = spec.keep_alive_ttl_s;
  config.reuse_semantics = spec.reuse_semantics;
  sim::ClusterEnv env(functions, catalog, cost_model, config,
                      spec.eviction_factory);
  return run_episode(env, *spec.scheduler, trace);
}

}  // namespace mlcr::policies
