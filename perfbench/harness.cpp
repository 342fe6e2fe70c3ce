#include "harness.hpp"

#include <sys/resource.h>

#include "fleet/fleet_env.hpp"
#include "fstartbench/workloads.hpp"

namespace perfbench {

sim::Trace overall_segments(const fstartbench::Benchmark& bench,
                            std::size_t total, util::Rng& population,
                            util::Rng& arrivals) {
  constexpr std::size_t kSegment = 400;
  std::vector<sim::Invocation> all;
  all.reserve(total + kSegment);
  double offset = 0.0;
  while (all.size() < total) {
    const sim::Trace segment =
        fstartbench::make_overall_workload(bench, kSegment, population);
    const double span = segment.invocations().back().arrival_s;
    for (sim::Invocation inv : segment.invocations()) {
      inv.arrival_s = offset + arrivals.uniform(0.0, span);
      all.push_back(inv);
    }
    offset += span;
  }
  return sim::Trace(std::move(all));
}

void set_sim_metrics(Outcome& out, const SimFingerprint& sim) {
  const double n = static_cast<double>(sim.invocations);
  out.set("mean_startup_s", n > 0 ? sim.total_latency_s / n : 0.0);
  out.set("cold_frac", n > 0 ? static_cast<double>(sim.cold) / n : 0.0);
  out.set("containers.warm_hit_frac",
          n > 0 ? static_cast<double>(sim.l1 + sim.l2 + sim.l3) / n : 0.0);
  out.set("containers.l1", static_cast<double>(sim.l1));
  out.set("containers.l2", static_cast<double>(sim.l2));
  out.set("containers.l3", static_cast<double>(sim.l3));
  out.set("containers.evictions", static_cast<double>(sim.evictions));
}

RequestLog::RequestLog(std::size_t n, bool traced_run)
    : traced(traced_run),
      done(n, 0),
      done_count(std::make_unique<std::atomic<std::uint32_t>[]>(n)) {
  for (std::size_t i = 0; i < n; ++i)
    done_count[i].store(0, std::memory_order_relaxed);
  if (traced) {
    for (auto* v : {&submit_in, &submit_out, &route_in, &route_out,
                    &decide_in, &decide_out})
      v->assign(n, 0);
  } else {
    route_in.assign(n, 0);  // fleet-sim's per-invocation boundary
  }
}

void StampScheduler::on_episode_start(const sim::ClusterEnv& env) {
  steps_ = 0;
  inner_->on_episode_start(env);
}

sim::Action StampScheduler::decide(const sim::ClusterEnv& env,
                                   const sim::Invocation& inv) {
  RequestLog& log = *hooks_.log;
  seq_ = inv.seq;
  if (log.traced) log.decide_in[seq_] = now_ns();
  const sim::Action action = inner_->decide(env, inv);
  if (log.traced) log.decide_out[seq_] = now_ns();
  return action;
}

void StampScheduler::on_step_result(const sim::ClusterEnv& env,
                                    const sim::StepResult& result) {
  RequestLog& log = *hooks_.log;
  log.done[seq_] = now_ns();
  log.done_count[seq_].fetch_add(1, std::memory_order_relaxed);
  inner_->on_step_result(env, result);
  if (hooks_.probe_every > 0 && ++steps_ % hooks_.probe_every == 0) {
    const std::int64_t t0 = now_ns();
    probe_index_.update(0, env);
    probe_ns_.push_back(static_cast<double>(now_ns() - t0));
  }
}

std::function<policies::SystemSpec(std::size_t, util::Rng)> stamped_system(
    std::function<policies::SystemSpec()> make, const Hooks& hooks) {
  return [make = std::move(make), &hooks](std::size_t, util::Rng) {
    policies::SystemSpec spec = make();
    spec.scheduler =
        std::make_unique<StampScheduler>(std::move(spec.scheduler), hooks);
    return spec;
  };
}

std::vector<double> take_probes(fleet::FleetEnv& fleet) {
  std::vector<double> all;
  for (std::size_t n = 0; n < fleet.node_count(); ++n) {
    auto& stamped = dynamic_cast<StampScheduler&>(fleet.node_scheduler(n));
    const std::vector<double> mine = stamped.take_probe_ns();
    all.insert(all.end(), mine.begin(), mine.end());
  }
  return all;
}

std::size_t StampRouter::route(const fleet::FleetEnv& fleet,
                               const sim::Invocation& inv) {
  RequestLog& log = *hooks_.log;
  log.route_in[inv.seq] = now_ns();
  const std::size_t node = inner_->route(fleet, inv);
  if (log.traced) log.route_out[inv.seq] = now_ns();
  return node;
}

std::size_t StampPolicy::route(const serve::ShardedFleetIndex& index,
                               const sim::FunctionTable& functions,
                               const sim::Invocation& inv) {
  RequestLog& log = *hooks_.log;
  calls_.fetch_add(1, std::memory_order_relaxed);
  log.route_in[inv.seq] = now_ns();
  const std::size_t node = inner_->route(index, functions, inv);
  log.route_out[inv.seq] = now_ns();
  return node;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
