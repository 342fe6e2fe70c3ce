// Benchmark entry point: runs one workload and prints every metric by name and
// unit, a provenance record, and as the last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (untraced run) or the per-layer metrics
// (--trace 1). Exits 1 when a correctness check fails. Normally started by
// perfbench/run.py, which builds this binary first; see README.md.
//
//   perfbench --workload serve-mlcr|fleet-sim --seed N
//             --seconds S --trace 0|1
//             --model perfbench/mlcr_overall.model [--source-sha HEX]
//   perfbench --check-model PATH     # non-finite Q-value scan of a model
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "model.hpp"
#include "obs/json.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks it).
constexpr MetricDef kEndToEnd[] = {
    {"lat_p50_us", "us"},       {"lat_p90_us", "us"},
    {"throughput_rps", "req/s"}, {"mean_startup_s", "s"},
    {"cold_frac", "ratio"},     {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"serve.queue_wait_us.p50", "us"},
    {"serve.queue_wait_us.p90", "us"},
    {"serve.route_us.p50", "us"},
    {"serve.route_us.p90", "us"},
    {"lat_p99_us", "us"},
    {"serve.batch_mean", "count"},
    {"serve.route_calls_per_req", "ratio"},
    {"serve.wave_width_mean", "count"},
    {"serve.max_wave", "count"},
    {"serve.pump_us_per_req", "us"},
    {"core.encode_us", "us"},
    {"rl.forward_us_per_state.w1", "us"},
    {"rl.forward_us_per_state.wave", "us"},
    {"rl.nonfinite_q", "count"},
    {"policies.decide_us.p50", "us"},
    {"sim.step_us.p50", "us"},
    {"fleet.route_us.p50", "us"},
    {"fleet.index_update_us", "us"},
    {"fleet.other_us_per_inv", "us"},
    {"containers.warm_hit_frac", "ratio"},
    {"containers.l1", "count"},
    {"containers.l2", "count"},
    {"containers.l3", "count"},
    {"containers.evictions", "count"},
    {"recon.unordered", "count"},
    {"trace_overhead_frac", "ratio"},
};

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos) return line.substr(colon + 2);
  }
  return "unknown";
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload serve-mlcr|fleet-sim "
               "--seed N --seconds S --trace 0|1 --model PATH "
               "[--source-sha HEX]\n"
               "       perfbench --check-model PATH\n";
  std::exit(2);
}

int check_model(const std::string& path) {
  const perfbench::QScan scan = perfbench::check_model_file(path, 1000);
  std::cout << path << ": " << scan.nonfinite << " of " << scan.states
            << " overall-workload states have non-finite Q-values\n";
  return scan.nonfinite == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string source_sha = "unknown";
  std::string check_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    const double num = std::strtod(value.c_str(), &end);
    const bool numeric = end != value.c_str() && *end == '\0';
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed" && numeric && num >= 0) {
      options.seed = static_cast<std::uint64_t>(num);
    } else if (arg == "--seconds" && numeric && num > 0) {
      options.seconds = num;
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else if (arg == "--model") {
      options.model_path = value;
    } else if (arg == "--source-sha") {
      source_sha = value;
    } else if (arg == "--check-model") {
      check_path = value;
    } else {
      usage("bad argument " + arg + " " + value);
    }
  }
  if (!check_path.empty()) return check_model(check_path);
  if (!have_workload) usage("--workload is required");
  options.nproc = std::max(1U, std::thread::hardware_concurrency());

  Outcome out;
  try {
    if (options.workload == "serve-mlcr") {
      if (options.model_path.empty()) usage("serve-mlcr needs --model");
      out = perfbench::run_serve_mlcr(options);
    } else if (options.workload == "fleet-sim") {
      out = perfbench::run_fleet_sim(options);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  const std::span<const MetricDef> defs =
      options.trace ? std::span<const MetricDef>(kPerLayer)
                    : std::span<const MetricDef>(kEndToEnd);
  std::string metrics;
  std::cout << "workload " << options.workload << " (seed " << options.seed
            << ", " << (options.trace ? "traced" : "untraced") << ")\n";
  for (const MetricDef& def : defs) {
    const auto it = out.metrics.find(def.name);
    double value = 0.0;
    if (it == out.metrics.end()) {
      out.check(false, std::string("metric not produced: ") + def.name);
    } else if (!std::isfinite(it->second)) {
      out.check(false, std::string("metric not finite: ") + def.name);
    } else {
      value = it->second;
    }
    std::printf("  %-32s %16.6g %s\n", def.name, value, def.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += mlcr::obs::json_quote(def.name) + ": {\"value\": " +
               number(value) +
               ", \"unit\": " + mlcr::obs::json_quote(def.unit) + "}";
  }
  for (const std::string& e : out.errors)
    std::cout << "  CHECK FAILED: " << e << "\n";

  std::string provenance =
      "{\"workload\": " + mlcr::obs::json_quote(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"seconds\": " + number(options.seconds) +
      ", \"trace\": " + (options.trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(options.nproc) +
      ", \"cpu\": " + mlcr::obs::json_quote(cpu_model()) +
      ", \"compiler\": " + mlcr::obs::json_quote(kCompiler) +
      ", \"build_type\": " + mlcr::obs::json_quote(PERFBENCH_BUILD_TYPE) +
      ", \"source_sha\": " + mlcr::obs::json_quote(source_sha);
  for (const auto& [key, value] : out.notes)
    provenance += ", " + mlcr::obs::json_quote(key) + ": " +
                  mlcr::obs::json_quote(value);
  std::cout << "provenance " << provenance << "}\n";

  const bool correct = out.errors.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::size_t>(1, out.attempted)
            << ", \"failed\": " << out.failed << ", \"metrics\": {" << metrics
            << "}}" << std::endl;
  return correct ? 0 : 1;
}
