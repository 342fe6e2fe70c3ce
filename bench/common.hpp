// Shared plumbing for the figure/table reproduction binaries: suite setup,
// command-line knobs, replication running, and MLCR model training with an
// on-disk cache so consecutive bench binaries reuse one trained model.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/mlcr.hpp"
#include "core/trainer.hpp"
#include "fstartbench/workloads.hpp"
#include "obs/json.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/schema_check.hpp"
#include "obs/sink.hpp"
#include "obs/tracer.hpp"
#include "policies/runner.hpp"
#include "util/check.hpp"
#include "util/parse.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/wall_clock.hpp"

namespace mlcr::benchtools {

/// Everything a bench needs: the 13 functions and the calibrated cost model.
struct Suite {
  fstartbench::Benchmark bench = fstartbench::make_benchmark();
  sim::StartupCostModel cost{bench.catalog, fstartbench::default_cost_config()};
};

/// Command-line knobs shared by the figure benches. Counts are whole
/// non-negative decimals; a malformed count or a missing value throws
/// util::CheckError naming the flag (parse_or_exit: exits 2 instead):
///   --reps N       replications per configuration (default 7; paper: 50;
///                  at least 1)
///   --episodes N   MLCR training episodes (default 30; at least 1)
///   --threads N    worker threads for the replication loop (default 1;
///                  0 = hardware concurrency). Results are bit-identical
///                  for any thread count: every rep owns a split Rng and a
///                  fresh system instance.
///   --fresh        ignore cached models, retrain
///   --trace F      write a Chrome trace_event JSON (Perfetto-loadable) of
///                  one traced episode per system to F
///   --metrics F    write the metrics registry (latency histograms with
///                  p50/p95/p99/p999, counters) as CSV to F
///   --json F       write a machine-readable result summary (the stable
///                  bench schema obs::check_bench_json validates and
///                  tools/benchdiff compares) to F
///   --snapshots F  write flight-recorder telemetry snapshots (the JSONL
///                  schema obs::check_snapshot_jsonl validates and
///                  tools/obsreport renders) to F — serving benches only
///   --replay-only  skip the wall-clock measurement phases and run only the
///                  deterministic SimClock replay — serving benches only
struct BenchOptions {
  std::size_t reps = 7;
  std::size_t episodes = 30;
  std::size_t threads = 1;
  bool fresh = false;
  bool replay_only = false;
  std::string trace_path;
  std::string metrics_path;
  std::string json_path;
  std::string snapshots_path;

  static BenchOptions parse(int argc, char** argv) {
    BenchOptions o;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next_str = [&]() -> std::string {
        MLCR_CHECK_MSG(i + 1 < argc, arg << " needs a value");
        return argv[++i];
      };
      auto next = [&]() -> std::size_t {
        return util::parse_count(next_str(), arg);
      };
      if (arg == "--reps")
        o.reps = next();
      else if (arg == "--episodes")
        o.episodes = next();
      else if (arg == "--threads")
        o.threads = next();
      else if (arg == "--fresh")
        o.fresh = true;
      else if (arg == "--replay-only")
        o.replay_only = true;
      else if (arg == "--trace")
        o.trace_path = next_str();
      else if (arg == "--metrics")
        o.metrics_path = next_str();
      else if (arg == "--json")
        o.json_path = next_str();
      else if (arg == "--snapshots")
        o.snapshots_path = next_str();
      else
        std::cerr << "ignoring unknown flag: " << arg << "\n";
    }
    MLCR_CHECK_MSG(o.reps >= 1, "--reps must be at least 1");
    MLCR_CHECK_MSG(o.episodes >= 1, "--episodes must be at least 1");
    return o;
  }

  /// parse() for a bench main: a bad command line prints parse()'s
  /// CheckError, which names the flag, and exits with status 2.
  static BenchOptions parse_or_exit(int argc, char** argv) {
    try {
      return parse(argc, argv);
    } catch (const util::CheckError& e) {
      std::cerr << argv[0] << ": " << e.what() << "\n";
      std::exit(2);
    }
  }
};

/// Machine-readable result summary of one bench run, in the small stable
/// schema obs::check_bench_json validates and tools/benchdiff compares:
///   {"bench": ..., "config": {...}, "wall_ms": ..., "events_per_sec": ...,
///    "metrics": {...}}
/// Keys keep insertion order, so output is deterministic. write() validates
/// the emitted document against the schema checker before it touches disk —
/// a bench can never check in a malformed baseline.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name) : bench_(std::move(bench_name)) {}

  void config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, obs::json_quote(value));
  }
  void config(const std::string& key, double value) {
    config_.emplace_back(key, format_number(value));
  }
  void config(const std::string& key, std::size_t value) {
    config_.emplace_back(key, std::to_string(value));
  }
  void metric(const std::string& key, double value) {
    metrics_.emplace_back(key, format_number(value));
  }
  void wall_ms(double value) { wall_ms_ = value; }
  void events_per_sec(double value) { events_per_sec_ = value; }

  [[nodiscard]] std::string to_json() const {
    std::string out = "{\n  \"bench\": " + obs::json_quote(bench_) +
                      ",\n  \"config\": {";
    out += join(config_);
    out += "},\n  \"wall_ms\": " + format_number(wall_ms_);
    out += ",\n  \"events_per_sec\": " + format_number(events_per_sec_);
    out += ",\n  \"metrics\": {";
    out += join(metrics_);
    out += "}\n}\n";
    return out;
  }

  /// Validate against obs::check_bench_json and write to `path`. Returns
  /// false (with a message on stderr) when validation or IO fails.
  bool write(const std::string& path) const {
    const std::string text = to_json();
    const auto errors = obs::check_bench_json(text);
    if (!errors.empty()) {
      std::cerr << "[bench] --json output failed schema check:\n";
      for (const auto& e : errors) std::cerr << "  " << e << "\n";
      return false;
    }
    std::ofstream out(path);
    if (!out) {
      std::cerr << "[bench] cannot write " << path << "\n";
      return false;
    }
    out << text;
    std::cerr << "[bench] wrote " << path << "\n";
    return true;
  }

 private:
  [[nodiscard]] static std::string format_number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  [[nodiscard]] static std::string join(
      const std::vector<std::pair<std::string, std::string>>& fields) {
    std::string out;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += "    " + obs::json_quote(fields[i].first) + ": " +
             fields[i].second;
    }
    if (!fields.empty()) out += "\n  ";
    return out;
  }

  std::string bench_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, std::string>> metrics_;
  double wall_ms_ = 0.0;
  double events_per_sec_ = 0.0;
};

/// The observability handles of one bench run: a tracer (with a Chrome JSON
/// sink when --trace was given) and a metrics registry (dumped as CSV when
/// --metrics was given). With neither flag the tracer has no sinks, so every
/// instrumentation site in the stack stays on its null fast path.
struct ObsSession {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;

  explicit ObsSession(const BenchOptions& options)
      : metrics_path_(options.metrics_path) {
    if (!options.trace_path.empty()) {
      tracer.add_sink(
          std::make_shared<obs::ChromeTraceSink>(options.trace_path));
      tracer.process_name(obs::Tracer::kSimPid, "simulated-cluster");
      tracer.process_name(obs::Tracer::kTrainPid, "training");
      tracer.process_name(obs::Tracer::kBenchPid, "bench");
    }
  }
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;
  ~ObsSession() { finish(); }

  [[nodiscard]] bool tracing() const noexcept { return tracer.enabled(); }

  /// Close the trace and dump the metrics CSV. Idempotent; the destructor
  /// calls it, but benches call it explicitly to report the output paths.
  void finish() {
    if (finished_) return;
    finished_ = true;
    tracer.close();
    if (!metrics_path_.empty()) metrics.write_csv(metrics_path_);
  }

 private:
  std::string metrics_path_;
  bool finished_ = false;
};

/// RAII wall-time span on the bench self-profiling track
/// (obs::Tracer::kBenchPid). Wall time comes from util::wall_now_us — the
/// src/util allowed zone — and never touches simulator tracks.
class BenchSpan {
 public:
  BenchSpan(ObsSession& session, std::string name, std::uint32_t tid = 0)
      : session_(session),
        name_(std::move(name)),
        tid_(tid),
        start_us_(session.tracing() ? util::wall_now_us() : 0) {}
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;
  ~BenchSpan() {
    if (!session_.tracing()) return;
    const std::int64_t end_us = util::wall_now_us();
    session_.tracer.span(obs::Tracer::kBenchPid, tid_, start_us_,
                         end_us - start_us_, std::move(name_), "bench");
  }

 private:
  ObsSession& session_;
  std::string name_;
  std::uint32_t tid_;
  std::int64_t start_us_;
};

/// Fold one episode's per-invocation outcomes into the session's registry:
/// a startup-latency histogram plus invocation/cold-start counters, all
/// keyed by system name.
inline void record_episode_metrics(ObsSession& session,
                                   const std::string& system,
                                   const sim::MetricsCollector& collected) {
  obs::Histogram& latency =
      session.metrics.histogram("startup_latency_s/" + system);
  for (const double v : collected.latencies()) latency.add(v);
  session.metrics.counter("invocations/" + system)
      .add(collected.invocation_count());
  session.metrics.counter("cold_starts/" + system)
      .add(collected.cold_start_count());
}

/// Generates a fresh trace of one workload family from a seeded stream.
using TraceFactory = std::function<sim::Trace(util::Rng&)>;

/// Train an MLCR agent for `factory`'s workload family across the given pool
/// capacities, or load it from `cache_tag`.model if present (and !fresh).
inline std::shared_ptr<rl::DqnAgent> trained_agent(
    const Suite& suite, const std::string& cache_tag,
    const TraceFactory& factory, const std::vector<double>& pool_sizes_mb,
    const core::MlcrConfig& cfg, const BenchOptions& options,
    std::uint64_t seed = 42) {
  auto agent = std::make_shared<rl::DqnAgent>(cfg.dqn, util::Rng(seed));
  const std::string path = cache_tag + ".model";
  if (options.fresh) std::remove(path.c_str());

  const auto train = [&] {
    std::cerr << "[bench] training MLCR model '" << cache_tag << "' ("
              << options.episodes << " episodes, "
              << pool_sizes_mb.size() << " pool sizes)...\n";
    util::Rng trace_rng(seed + 1);
    std::vector<sim::Trace> traces;
    for (int i = 0; i < 4; ++i) traces.push_back(factory(trace_rng));
    std::vector<const sim::Trace*> trace_ptrs;
    for (const auto& t : traces) trace_ptrs.push_back(&t);

    std::vector<std::unique_ptr<sim::ClusterEnv>> envs;
    std::vector<sim::ClusterEnv*> env_ptrs;
    for (const double mb : pool_sizes_mb) {
      sim::EnvConfig env_cfg;
      env_cfg.pool_capacity_mb = mb;
      envs.push_back(std::make_unique<sim::ClusterEnv>(
          suite.bench.functions, suite.bench.catalog, suite.cost, env_cfg,
          [] { return std::make_unique<containers::LruEviction>(); }));
      env_ptrs.push_back(envs.back().get());
    }

    const core::StateEncoder encoder(cfg.encoder);
    core::TrainerConfig tc;
    tc.episodes = options.episodes;
    tc.seed = seed + 2;
    const auto report = core::train_agent(*agent, encoder, cfg.reward_scale_s,
                                          env_ptrs, trace_ptrs, tc);
    std::cerr << "[bench] trained: episode latency "
              << util::Table::num(report.episode_total_latency_s.front(), 1)
              << "s -> "
              << util::Table::num(report.episode_total_latency_s.back(), 1)
              << "s over " << report.train_steps << " gradient steps\n";
  };
  if (core::load_or_train(*agent, path, train))
    std::cerr << "[bench] loaded cached model " << path << "\n";
  return agent;
}

/// Builds a fresh SystemSpec. Replications call this once per rep so no
/// mutable scheduler state (Rngs, inference workspaces, a training agent) is
/// shared across reps — the requirement for running reps on the thread pool
/// and for bit-identical results regardless of execution order. A frozen
/// agent, which decisions only read, may be shared.
using SystemFactory = std::function<policies::SystemSpec()>;

struct NamedSystem {
  std::string name;
  SystemFactory make;
};

/// SystemFactory for MLCR backed by a trained agent. Every system shares the
/// agent itself: a decision only reads it, through its MlcrScheduler's own
/// workspace (DqnAgent::greedy_action is const), so reps and fleet nodes may
/// decide on the replication thread pool concurrently.
inline SystemFactory mlcr_system_factory(
    const std::shared_ptr<rl::DqnAgent>& trained,
    const core::StateEncoderConfig& encoder) {
  return [trained, encoder] {
    return core::make_mlcr_system(trained, encoder);
  };
}

/// The paper's five systems. MLCR is included only when an agent is given.
inline std::vector<NamedSystem> paper_systems(
    const std::shared_ptr<rl::DqnAgent>& mlcr_agent = nullptr,
    const core::StateEncoderConfig* encoder = nullptr) {
  std::vector<NamedSystem> systems;
  systems.push_back({"LRU", [] { return policies::make_lru_system(); }});
  systems.push_back(
      {"FaasCache", [] { return policies::make_faascache_system(); }});
  systems.push_back(
      {"KeepAlive", [] { return policies::make_keepalive_system(); }});
  systems.push_back(
      {"Greedy-Match", [] { return policies::make_greedy_match_system(); }});
  if (mlcr_agent != nullptr && encoder != nullptr)
    systems.push_back({"MLCR", mlcr_system_factory(mlcr_agent, *encoder)});
  return systems;
}

/// Aggregated replication results for one (system, configuration) cell.
struct RepStats {
  util::RunningStats total_latency_s;
  util::RunningStats cold_starts;
  util::RunningStats peak_pool_mb;
  util::RunningStats evictions;
  std::vector<double> totals;  ///< raw per-rep totals, for box stats
};

/// Run a fresh system (one per rep, from `make_system`) over `reps` freshly
/// generated traces at the given pool size. Each rep owns an Rng split off
/// the trace seed in rep order, so running the reps on `threads` workers
/// (0 = hardware concurrency) produces bit-identical statistics to the
/// serial loop — results are folded in rep order after all reps finish.
inline RepStats run_replications(const Suite& suite,
                                 const SystemFactory& make_system,
                                 const TraceFactory& factory,
                                 double pool_capacity_mb, std::size_t reps,
                                 std::size_t threads = 1,
                                 std::uint64_t trace_seed = 9000) {
  std::vector<util::Rng> rep_rngs;
  rep_rngs.reserve(reps);
  util::Rng root(trace_seed);
  for (std::size_t r = 0; r < reps; ++r) rep_rngs.push_back(root.split());

  std::vector<policies::EpisodeSummary> results(reps);
  const auto run_one = [&](std::size_t r) {
    util::Rng rng = rep_rngs[r];
    const policies::SystemSpec spec = make_system();
    const sim::Trace trace = factory(rng);
    results[r] =
        policies::run_system(spec, suite.bench.functions, suite.bench.catalog,
                             suite.cost, pool_capacity_mb, trace);
  };
  if (threads == 1) {
    for (std::size_t r = 0; r < reps; ++r) run_one(r);
  } else {
    util::ThreadPool pool(threads);
    pool.parallel_for(reps, run_one);
  }

  RepStats stats;
  for (const auto& s : results) {
    stats.total_latency_s.add(s.total_latency_s);
    stats.cold_starts.add(static_cast<double>(s.cold_starts));
    stats.peak_pool_mb.add(s.peak_pool_mb);
    stats.evictions.add(static_cast<double>(s.evictions));
    stats.totals.push_back(s.total_latency_s);
  }
  return stats;
}

/// Run ONE fully-traced episode of `system`: lifecycle spans go to the
/// session tracer on sim track `track` (named after the system), a wall-time
/// "episode:<name>" span brackets it on the bench track, every MLCR
/// scheduling decision gets a wall-time "dqn_inference" span, and the
/// latency distribution lands in the session metrics. Kept separate from
/// run_replications: the stats loop may be threaded and stays untraced,
/// while this single episode owns the tracer.
inline policies::EpisodeSummary trace_episode(ObsSession& session,
                                              const Suite& suite,
                                              const NamedSystem& system,
                                              const TraceFactory& factory,
                                              double pool_capacity_mb,
                                              std::uint32_t track = 0,
                                              std::uint64_t trace_seed = 9000) {
  util::Rng rng(trace_seed);
  const sim::Trace trace = factory(rng);
  const policies::SystemSpec spec = system.make();

  sim::EnvConfig config;
  config.pool_capacity_mb = pool_capacity_mb;
  config.keep_alive_ttl_s = spec.keep_alive_ttl_s;
  config.reuse_semantics = spec.reuse_semantics;
  sim::ClusterEnv env(suite.bench.functions, suite.bench.catalog, suite.cost,
                      config, spec.eviction_factory);
  env.set_tracer(&session.tracer, track);
  session.tracer.thread_name(obs::Tracer::kSimPid, track, system.name);

  const bool profile_inference = system.name == "MLCR";
  BenchSpan episode_span(session, "episode:" + system.name, track);
  env.reset(trace);
  spec.scheduler->on_episode_start(env);
  while (!env.done()) {
    const sim::Invocation& inv = env.current();
    sim::Action action;
    if (profile_inference) {
      BenchSpan infer(session, "dqn_inference", track);
      action = spec.scheduler->decide(env, inv);
    } else {
      action = spec.scheduler->decide(env, inv);
    }
    const sim::StepResult result = env.step(action);
    spec.scheduler->on_step_result(env, result);
  }
  record_episode_metrics(session, system.name, env.metrics());
  return policies::summarize_env(env, spec.scheduler->name());
}

/// Format a BoxStats as "median [q1, q3]".
inline std::string box_cell(const util::BoxStats& b) {
  return util::Table::num(b.median, 1) + " [" + util::Table::num(b.q1, 1) +
         ", " + util::Table::num(b.q3, 1) + "]";
}

/// One Fig. 11 workload family: a name, a model-cache tag, and a trace
/// factory.
struct WorkloadFamily {
  std::string name;
  std::string cache_tag;
  TraceFactory factory;
};

/// The Fig. 11 protocol (Sec. VI-C): for each family, train MLCR across pool
/// sizes, then report the distribution (median [q1, q3]) of the total
/// startup latency of every system at 25/50/75/100% of the Loose capacity.
inline void run_fig11(const Suite& suite, const BenchOptions& options,
                      const std::vector<WorkloadFamily>& families,
                      const char* figure_name) {
  const core::MlcrConfig cfg = core::make_default_mlcr_config();
  for (const auto& family : families) {
    util::Rng ref_rng(1000);
    const sim::Trace reference = family.factory(ref_rng);
    const double loose =
        fstartbench::estimate_loose_capacity_mb(suite.bench, reference);

    const auto agent =
        trained_agent(suite, family.cache_tag, family.factory,
                      {loose * 0.25, loose * 0.5, loose}, cfg, options);

    util::Table table({"system", "25% pool (s)", "50% pool (s)",
                       "75% pool (s)", "100% pool (s)"});
    for (const auto& system : paper_systems(agent, &cfg.encoder)) {
      std::vector<std::string> cells = {system.name};
      for (const double frac : {0.25, 0.5, 0.75, 1.0}) {
        auto stats = run_replications(suite, system.make, family.factory,
                                      loose * frac, options.reps,
                                      options.threads);
        cells.push_back(box_cell(util::box_stats(std::move(stats.totals))));
      }
      table.add_row(std::move(cells));
    }
    std::cout << "\n=== " << figure_name << ": " << family.name
              << " (Loose = " << util::Table::num(loose, 0) << " MB, "
              << options.reps << " reps, cells: median [q1, q3] of total "
              << "startup latency) ===\n";
    table.print(std::cout);
  }
}

}  // namespace mlcr::benchtools
