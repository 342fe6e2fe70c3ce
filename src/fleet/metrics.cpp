#include "fleet/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/audit.hpp"
#include "util/check.hpp"

namespace mlcr::fleet {

namespace {

/// Every node's summary agrees with its own metrics, and per-node metrics
/// sum to the fleet totals: the merged record stream carries exactly the
/// invocations the summaries counted, level by level.
[[maybe_unused]] void audit_aggregation(
    const FleetSummary& fs, const std::vector<NodeObservation>& nodes) {
  for (const NodeObservation& node : nodes) {
    node.metrics.audit();
    MLCR_CHECK_MSG(node.summary.invocations == node.metrics.invocation_count(),
                   "node summary and metrics disagree on invocation count");
  }
  fs.merged.audit();
  MLCR_CHECK_MSG(fs.merged.invocation_count() == fs.total.invocations,
                 "merged records disagree with summed node invocations");
  MLCR_CHECK_MSG(fs.merged.cold_start_count() == fs.total.cold_starts,
                 "merged cold starts disagree with summed node cold starts");
  MLCR_CHECK_MSG(
      fs.merged.warm_starts_at(containers::MatchLevel::kL1) ==
              fs.total.warm_l1 &&
          fs.merged.warm_starts_at(containers::MatchLevel::kL2) ==
              fs.total.warm_l2 &&
          fs.merged.warm_starts_at(containers::MatchLevel::kL3) ==
              fs.total.warm_l3,
      "merged warm-start levels disagree with summed node levels");
  MLCR_CHECK_MSG(
      std::abs(fs.merged.total_latency_s() - fs.total.total_latency_s) <=
          1e-9 * std::max(1.0, fs.total.total_latency_s),
      "merged total latency disagrees with summed node latency");
  MLCR_CHECK_MSG(fs.merged.failed_count() == fs.total.failed &&
                     fs.merged.retry_count() == fs.total.retries,
                 "merged failed/retry counts disagree with summed nodes");
}

}  // namespace

FleetSummary aggregate_fleet(std::string router, std::string system,
                             const std::vector<NodeObservation>& nodes) {
  FleetSummary fs;
  fs.router = std::move(router);
  fs.system = std::move(system);
  fs.nodes = nodes.size();
  fs.total.scheduler = fs.system;

  std::size_t max_invocations = 0;
  std::vector<const sim::MetricsCollector*> parts;
  parts.reserve(nodes.size());
  for (const NodeObservation& node : nodes) {
    const policies::EpisodeSummary& s = node.summary;
    fs.per_node.push_back(s);
    fs.total.invocations += s.invocations;
    fs.total.total_latency_s += s.total_latency_s;
    fs.total.cold_starts += s.cold_starts;
    fs.total.warm_l1 += s.warm_l1;
    fs.total.warm_l2 += s.warm_l2;
    fs.total.warm_l3 += s.warm_l3;
    fs.total.peak_pool_mb += s.peak_pool_mb;
    fs.total.evictions += s.evictions;
    fs.total.rejections += s.rejections;
    fs.total.failed += s.failed;
    fs.total.retries += s.retries;
    max_invocations = std::max(max_invocations, s.invocations);
    parts.push_back(&node.metrics);
  }
  // One concatenate-and-sort over all nodes.
  fs.merged.merge_many(parts);
  if (fs.total.invocations > 0) {
    fs.total.average_latency_s =
        fs.total.total_latency_s / static_cast<double>(fs.total.invocations);
    fs.routing_imbalance =
        static_cast<double>(max_invocations) * static_cast<double>(fs.nodes) /
        static_cast<double>(fs.total.invocations);
  }
  MLCR_AUDIT_POINT(audit_aggregation(fs, nodes));
  return fs;
}

}  // namespace mlcr::fleet
