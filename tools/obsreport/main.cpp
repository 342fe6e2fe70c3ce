// obsreport: render flight-recorder snapshot JSONL (serve::Telemetry's
// export) and gate on SLO breaches for CI.
//
//   obsreport <snapshots.jsonl> [--summary]
//             [--max-route-p95 S] [--max-e2e-p99 S] [--min-goodput F]
//             [--max-rejection-rate F] [--max-queue-depth D]
//             [--max-loss-rate F] [--max-retry-pressure F]
//             [--no-recorded-gate]
//
// Threshold flags re-evaluate every snapshot offline on top of whatever the
// telemetry plane recorded online; --no-recorded-gate ignores the recorded
// "breaches" arrays (render-only triage of a known-bad run). Exit 0 when
// the file is schema-valid and nothing breaches, 1 on schema errors or any
// breach, 2 on usage/IO errors.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obsreport/report.hpp"
#include "util/check.hpp"
#include "util/parse.hpp"

int main(int argc, char** argv) {
  std::string path;
  bool summary = false;
  mlcr::obsreport::ReportOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    double* threshold = nullptr;
    if (arg == "--max-route-p95")
      threshold = &options.slo.max_route_p95_s;
    else if (arg == "--max-e2e-p99")
      threshold = &options.slo.max_e2e_p99_s;
    else if (arg == "--min-goodput")
      threshold = &options.slo.min_goodput;
    else if (arg == "--max-rejection-rate")
      threshold = &options.slo.max_rejection_rate;
    else if (arg == "--max-queue-depth")
      threshold = &options.slo.max_queue_depth;
    else if (arg == "--max-loss-rate")
      threshold = &options.slo.max_loss_rate;
    else if (arg == "--max-retry-pressure")
      threshold = &options.slo.max_retry_pressure;

    if (threshold != nullptr) {
      if (i + 1 >= argc) {
        std::cerr << "obsreport: " << arg << " needs a numeric value\n";
        return 2;
      }
      try {
        *threshold = mlcr::util::parse_number(argv[++i], arg);
      } catch (const mlcr::util::CheckError& e) {
        std::cerr << "obsreport: " << e.what() << "\n";
        return 2;
      }
      if (*threshold < 0.0) {
        std::cerr << "obsreport: " << arg << " needs a value >= 0\n";
        return 2;
      }
    } else if (arg == "--summary") {
      summary = true;
    } else if (arg == "--no-recorded-gate") {
      options.gate_recorded = false;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: obsreport <snapshots.jsonl> [--summary] "
                   "[--max-route-p95 S] [--max-e2e-p99 S] [--min-goodput F] "
                   "[--max-rejection-rate F] [--max-queue-depth D] "
                   "[--max-loss-rate F] [--max-retry-pressure F] "
                   "[--no-recorded-gate]\n";
      return 0;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::cerr << "obsreport: unexpected argument '" << arg << "'\n";
      return 2;
    }
  }
  if (path.empty()) {
    std::cerr << "obsreport: no snapshot file given\n";
    return 2;
  }

  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) {
    std::cerr << "obsreport: cannot read " << path << "\n";
    return 2;
  }
  std::ostringstream buf;
  buf << is.rdbuf();

  const mlcr::obsreport::Report report =
      mlcr::obsreport::analyze_snapshots(buf.str(), options);
  if (summary || !report.ok())
    std::cout << mlcr::obsreport::render_report(report);
  else
    std::cout << "snapshots: " << report.rows.size() << ", no SLO breach\n";
  return report.ok() ? 0 : 1;
}
