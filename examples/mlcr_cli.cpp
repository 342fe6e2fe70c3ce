// mlcr_cli: command-line driver for the simulator — compose a workload, pick
// systems, run replications, and emit a table or CSV. This is the "swiss
// army knife" example for scripting studies on top of the library.
//
//   mlcr_cli --workload overall --invocations 400 --pool 0.5 --reps 5
//   mlcr_cli --workload peak --systems lru,greedy,prewarm --csv out.csv
//   mlcr_cli --workload hi-sim --save-trace trace.csv
//   mlcr_cli --load-trace trace.csv --systems greedy
//
// Workloads: overall | hi-sim | lo-sim | hi-var | lo-var | uniform | peak |
//            random. Systems: lru, faascache, keepalive, greedy, prewarm,
//            random. (MLCR needs training; see examples/train_and_deploy.)
// --pool takes a fraction of the workload's Loose capacity.
#include <fstream>
#include <iostream>
#include <sstream>

#include "fstartbench/workloads.hpp"
#include "policies/prewarm.hpp"
#include "policies/runner.hpp"
#include "sim/trace_io.hpp"
#include "util/check.hpp"
#include "util/parse.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace mlcr;

struct CliOptions {
  std::string workload = "overall";
  std::string systems = "lru,faascache,keepalive,greedy,prewarm";
  std::size_t invocations = 300;
  double pool_fraction = 0.5;
  std::size_t reps = 3;
  std::uint64_t seed = 42;
  std::string csv_path;
  std::string save_trace;
  std::string load_trace;
};

void usage() {
  std::cout <<
      "usage: mlcr_cli [--workload NAME] [--invocations N] [--pool FRAC]\n"
      "                [--systems a,b,c] [--reps N] [--seed S]\n"
      "                [--csv FILE] [--save-trace FILE] [--load-trace FILE]\n"
      "workloads: overall hi-sim lo-sim hi-var lo-var uniform peak random\n"
      "systems:   lru faascache keepalive greedy prewarm random\n";
}

/// `--pool`: a finite fraction of the Loose capacity, above 0.
[[nodiscard]] double parse_pool_fraction(const std::string& text) {
  const double fraction = util::parse_number(text, "--pool");
  MLCR_CHECK_MSG(fraction > 0.0, "--pool needs a fraction > 0, got " << text);
  return fraction;
}

[[nodiscard]] std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep))
    if (!item.empty()) out.push_back(item);
  return out;
}

[[nodiscard]] sim::Trace make_workload(const fstartbench::Benchmark& bench,
                                       const CliOptions& opt, util::Rng& rng) {
  using fstartbench::ArrivalPattern;
  const std::string& w = opt.workload;
  const std::size_t n = opt.invocations;
  // Similarity/variance/arrival workloads need totals divisible by 5.
  const std::size_t n5 = (n / 5) * 5;
  if (w == "overall")
    return fstartbench::make_overall_workload(bench, n, rng);
  if (w == "hi-sim")
    return fstartbench::make_similarity_workload(bench, true, n5, rng);
  if (w == "lo-sim")
    return fstartbench::make_similarity_workload(bench, false, n5, rng);
  if (w == "hi-var")
    return fstartbench::make_variance_workload(bench, true, n5, rng);
  if (w == "lo-var")
    return fstartbench::make_variance_workload(bench, false, n5, rng);
  if (w == "uniform")
    return fstartbench::make_arrival_workload(bench, ArrivalPattern::kUniform,
                                              n, rng);
  if (w == "peak")
    return fstartbench::make_arrival_workload(bench, ArrivalPattern::kPeak, n,
                                              rng);
  if (w == "random")
    return fstartbench::make_arrival_workload(bench, ArrivalPattern::kRandom,
                                              n, rng);
  std::cerr << "unknown workload '" << w << "'\n";
  std::exit(2);
}

[[nodiscard]] policies::SystemSpec make_system(const std::string& name) {
  if (name == "lru") return policies::make_lru_system();
  if (name == "faascache") return policies::make_faascache_system();
  if (name == "keepalive") return policies::make_keepalive_system();
  if (name == "greedy") return policies::make_greedy_match_system();
  if (name == "prewarm") return policies::make_prewarm_system();
  if (name == "random") return policies::make_random_system();
  std::cerr << "unknown system '" << name << "'\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  // A malformed number throws CheckError naming the flag: a usage error.
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) {
          std::cerr << arg << " needs a value\n";
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--workload")
        opt.workload = value();
      else if (arg == "--systems")
        opt.systems = value();
      else if (arg == "--invocations")
        opt.invocations = util::parse_count(value(), arg);
      else if (arg == "--pool")
        opt.pool_fraction = parse_pool_fraction(value());
      else if (arg == "--reps")
        opt.reps = util::parse_count(value(), arg);
      else if (arg == "--seed")
        opt.seed = util::parse_count(value(), arg);
      else if (arg == "--csv")
        opt.csv_path = value();
      else if (arg == "--save-trace")
        opt.save_trace = value();
      else if (arg == "--load-trace")
        opt.load_trace = value();
      else if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else {
        std::cerr << "unknown flag " << arg << "\n";
        usage();
        return 2;
      }
    }
  } catch (const util::CheckError& e) {
    std::cerr << "mlcr_cli: " << e.what() << "\n";
    return 2;
  }

  const fstartbench::Benchmark bench = fstartbench::make_benchmark();
  const sim::StartupCostModel cost(bench.catalog,
                                   fstartbench::default_cost_config());
  util::Rng rng(opt.seed);

  // Workload: generated or replayed from CSV.
  const sim::Trace trace = opt.load_trace.empty()
                               ? make_workload(bench, opt, rng)
                               : sim::read_trace_csv(opt.load_trace,
                                                     bench.functions);
  if (!opt.save_trace.empty()) {
    sim::write_trace_csv(trace, opt.save_trace);
    std::cout << "saved " << trace.size() << " invocations to "
              << opt.save_trace << "\n";
  }

  const double loose = fstartbench::estimate_loose_capacity_mb(bench, trace);
  const double pool_mb = loose * opt.pool_fraction;
  std::cout << "workload '" << opt.workload << "': " << trace.size()
            << " invocations over " << util::Table::num(trace.span_s(), 0)
            << " s; pool " << util::Table::num(pool_mb, 0) << " MB ("
            << util::Table::num(100.0 * opt.pool_fraction, 0)
            << "% of Loose), " << opt.reps << " reps\n\n";

  util::Table table({"system", "mean total (s)", "stddev", "mean cold",
                     "mean evictions", "peak pool (MB)"});
  std::ofstream csv_file;
  std::unique_ptr<util::CsvWriter> csv;
  if (!opt.csv_path.empty()) {
    csv_file.open(opt.csv_path);
    csv = std::make_unique<util::CsvWriter>(
        csv_file, std::vector<std::string>{"system", "rep", "total_latency_s",
                                           "cold_starts", "evictions",
                                           "peak_pool_mb"});
  }

  for (const std::string& name : split(opt.systems, ',')) {
    const auto spec = make_system(name);
    util::RunningStats total, cold, evict, peak;
    util::Rng rep_rng(opt.seed + 1);
    for (std::size_t r = 0; r < opt.reps; ++r) {
      const sim::Trace rep_trace =
          (r == 0 || !opt.load_trace.empty())
              ? trace
              : make_workload(bench, opt, rep_rng);
      const auto s = policies::run_system(spec, bench.functions, bench.catalog,
                                          cost, pool_mb, rep_trace);
      total.add(s.total_latency_s);
      cold.add(static_cast<double>(s.cold_starts));
      evict.add(static_cast<double>(s.evictions));
      peak.add(s.peak_pool_mb);
      if (csv)
        csv->add_row({spec.name, std::to_string(r),
                      util::Table::num(s.total_latency_s, 3),
                      std::to_string(s.cold_starts),
                      std::to_string(s.evictions),
                      util::Table::num(s.peak_pool_mb, 1)});
    }
    table.add_row({spec.name, util::Table::num(total.mean(), 1),
                   util::Table::num(total.stddev(), 1),
                   util::Table::num(cold.mean(), 1),
                   util::Table::num(evict.mean(), 1),
                   util::Table::num(peak.mean(), 0)});
  }
  table.print(std::cout);
  if (csv) std::cout << "per-rep rows written to " << opt.csv_path << "\n";
  return 0;
}
