#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "util/check.hpp"

namespace mlcr::sim {
namespace {

// An episode keeps one record per invocation, in its node's collector; the
// record carries only the fields that are read.
static_assert(sizeof(InvocationRecord) <= 40,
              "InvocationRecord grew past its 40-byte packing");

InvocationRecord rec(std::uint64_t seq, double latency, bool cold,
                     containers::MatchLevel match) {
  InvocationRecord r;
  r.seq = seq;
  r.latency_s = latency;
  r.cold = cold;
  r.match = match;
  return r;
}

TEST(Metrics, EmptyCollector) {
  const MetricsCollector m;
  EXPECT_EQ(m.invocation_count(), 0U);
  EXPECT_DOUBLE_EQ(m.total_latency_s(), 0.0);
  EXPECT_DOUBLE_EQ(m.average_latency_s(), 0.0);
  EXPECT_TRUE(m.latencies().empty());
  EXPECT_TRUE(m.cumulative_latency().empty());
}

TEST(Metrics, AggregatesTotalsAndCategories) {
  MetricsCollector m;
  m.record(rec(0, 5.0, true, containers::MatchLevel::kNoMatch));
  m.record(rec(1, 1.0, false, containers::MatchLevel::kL2));
  m.record(rec(2, 0.5, false, containers::MatchLevel::kL3));
  m.record(rec(3, 0.5, false, containers::MatchLevel::kL3));
  EXPECT_EQ(m.invocation_count(), 4U);
  EXPECT_DOUBLE_EQ(m.total_latency_s(), 7.0);
  EXPECT_DOUBLE_EQ(m.average_latency_s(), 1.75);
  EXPECT_EQ(m.cold_start_count(), 1U);
  EXPECT_EQ(m.warm_starts_at(containers::MatchLevel::kL1), 0U);
  EXPECT_EQ(m.warm_starts_at(containers::MatchLevel::kL2), 1U);
  EXPECT_EQ(m.warm_starts_at(containers::MatchLevel::kL3), 2U);
}

TEST(Metrics, CumulativeSeriesAreMonotone) {
  MetricsCollector m;
  m.record(rec(0, 2.0, true, containers::MatchLevel::kNoMatch));
  m.record(rec(1, 1.0, false, containers::MatchLevel::kL3));
  m.record(rec(2, 3.0, true, containers::MatchLevel::kNoMatch));
  const auto lat = m.cumulative_latency();
  const auto cold = m.cumulative_cold_starts();
  ASSERT_EQ(lat.size(), 3U);
  EXPECT_DOUBLE_EQ(lat[0], 2.0);
  EXPECT_DOUBLE_EQ(lat[1], 3.0);
  EXPECT_DOUBLE_EQ(lat[2], 6.0);
  EXPECT_EQ(cold[0], 1U);
  EXPECT_EQ(cold[1], 1U);
  EXPECT_EQ(cold[2], 2U);
}

TEST(Metrics, ClearResetsEverything) {
  MetricsCollector m;
  m.record(rec(0, 2.0, true, containers::MatchLevel::kNoMatch));
  m.clear();
  EXPECT_EQ(m.invocation_count(), 0U);
  EXPECT_EQ(m.cold_start_count(), 0U);
  EXPECT_EQ(m.warm_starts_at(containers::MatchLevel::kL3), 0U);
  EXPECT_DOUBLE_EQ(m.total_latency_s(), 0.0);
}

TEST(Metrics, LatenciesPreserveArrivalOrder) {
  MetricsCollector m;
  m.record(rec(0, 3.0, true, containers::MatchLevel::kNoMatch));
  m.record(rec(1, 1.0, false, containers::MatchLevel::kL3));
  EXPECT_EQ(m.latencies(), (std::vector<double>{3.0, 1.0}));
}

TEST(Metrics, LatencyPercentilesUseExactRanks) {
  MetricsCollector m;
  // 1..100, recorded out of order; nearest-rank percentiles are exact.
  for (int i = 0; i < 100; ++i) {
    const double latency = static_cast<double>((i * 37) % 100 + 1);
    m.record(rec(i, latency, false, containers::MatchLevel::kL3));
  }
  EXPECT_DOUBLE_EQ(m.latency_p50(), 50.0);
  EXPECT_DOUBLE_EQ(m.latency_p95(), 95.0);
  EXPECT_DOUBLE_EQ(m.latency_p99(), 99.0);
  EXPECT_DOUBLE_EQ(m.latency_percentile(100.0), 100.0);
  EXPECT_DOUBLE_EQ(m.latency_percentile(0.0), 1.0);
}

TEST(Metrics, LatencyPercentileOnEmptyAndSingleRecord) {
  MetricsCollector m;
  EXPECT_DOUBLE_EQ(m.latency_p99(), 0.0);
  m.record(rec(0, 4.5, true, containers::MatchLevel::kNoMatch));
  EXPECT_DOUBLE_EQ(m.latency_p50(), 4.5);
  EXPECT_DOUBLE_EQ(m.latency_p99(), 4.5);
}

TEST(Metrics, FailedRecordsLeaveEveryBucketAndDriveGoodput) {
  MetricsCollector m;
  EXPECT_DOUBLE_EQ(m.goodput(), 1.0);  // nothing recorded, nothing lost
  m.record(rec(0, 5.0, true, containers::MatchLevel::kNoMatch));
  InvocationRecord failed = rec(1, 9.0, true, containers::MatchLevel::kNoMatch);
  failed.failed = true;
  failed.attempts = 3;
  m.record(std::move(failed));
  EXPECT_EQ(m.invocation_count(), 2U);
  EXPECT_EQ(m.failed_count(), 1U);
  EXPECT_EQ(m.retry_count(), 2U);
  EXPECT_EQ(m.cold_start_count(), 1U);  // the failed record is not a start
  EXPECT_EQ(m.latencies(), (std::vector<double>{5.0}));
  EXPECT_DOUBLE_EQ(m.goodput(), 0.5);
  // Time spent on failed attempts stays in the latency totals: it was spent.
  EXPECT_DOUBLE_EQ(m.total_latency_s(), 14.0);
}

TEST(Metrics, MarkFailedRetroactivelyReclassifiesARecord) {
  MetricsCollector m;
  m.record(rec(10, 2.0, true, containers::MatchLevel::kNoMatch));
  m.record(rec(11, 1.0, false, containers::MatchLevel::kL3));
  m.mark_failed(1);  // by position in records(), not by seq
  EXPECT_TRUE(m.records()[1].failed);
  EXPECT_EQ(m.failed_count(), 1U);
  EXPECT_EQ(m.warm_starts_at(containers::MatchLevel::kL3), 0U);
  EXPECT_EQ(m.latencies(), (std::vector<double>{2.0}));
  m.mark_failed(1);  // idempotent
  EXPECT_EQ(m.failed_count(), 1U);
  EXPECT_THROW(m.mark_failed(2), util::CheckError);  // out of range
  m.audit();
}

TEST(Metrics, PercentilesAreZeroWhenNoInvocationWasServed) {
  // Regression: on an empty or all-failed episode the percentile accessors
  // must return 0.0 by contract, never index an empty sample set.
  MetricsCollector empty;
  EXPECT_DOUBLE_EQ(empty.latency_p50(), 0.0);
  EXPECT_DOUBLE_EQ(empty.latency_p99(), 0.0);
  EXPECT_DOUBLE_EQ(empty.latency_percentile(100.0), 0.0);

  MetricsCollector all_failed;
  for (int i = 0; i < 4; ++i) {
    InvocationRecord r = rec(i, 3.0, true, containers::MatchLevel::kNoMatch);
    r.failed = true;
    all_failed.record(std::move(r));
  }
  EXPECT_TRUE(all_failed.latencies().empty());
  EXPECT_DOUBLE_EQ(all_failed.latency_p50(), 0.0);
  EXPECT_DOUBLE_EQ(all_failed.latency_p99(), 0.0);
  EXPECT_DOUBLE_EQ(all_failed.goodput(), 0.0);
}

TEST(Metrics, LargeFleetMergePreservesExactRankPercentiles) {
  // Regression for the serving-scale aggregation path: a fleet-wide
  // percentile is the nearest-rank value over the union of every node's
  // raw latencies, folded in node order. It must equal the value over the
  // sorted union, and so over the records in trace order — no
  // re-bucketing, no drift from the fold order.
  constexpr std::size_t kNodes = 64;
  constexpr std::size_t kPerNode = 37;
  std::vector<MetricsCollector> nodes(kNodes);
  std::vector<double> all;
  std::uint64_t seq = 0;
  for (std::size_t n = 0; n < kNodes; ++n) {
    for (std::size_t i = 0; i < kPerNode; ++i) {
      // A deterministic scramble spanning several orders of magnitude.
      const double latency =
          0.001 * static_cast<double>((seq * 2654435761ULL) % 100000 + 1);
      nodes[n].record(rec(seq++, latency, false,
                          containers::MatchLevel::kL3));
      all.push_back(latency);
    }
  }

  std::vector<double> node_order;
  std::vector<double> reverse_order;
  for (std::size_t n = 0; n < kNodes; ++n) {
    const std::vector<double> fwd = nodes[n].latencies();
    const std::vector<double> rev = nodes[kNodes - 1 - n].latencies();
    node_order.insert(node_order.end(), fwd.begin(), fwd.end());
    reverse_order.insert(reverse_order.end(), rev.begin(), rev.end());
  }
  ASSERT_EQ(node_order.size(), kNodes * kPerNode);

  std::vector<double> sorted = all;
  std::sort(sorted.begin(), sorted.end());
  for (const double p : {0.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
    // Nearest-rank reference: the smallest value whose rank >= ceil(p% * n).
    const double n = static_cast<double>(sorted.size());
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    if (rank < 1) rank = 1;
    if (rank > sorted.size()) rank = sorted.size();
    EXPECT_DOUBLE_EQ(obs::exact_rank_percentile(node_order, p),
                     sorted[rank - 1])
        << "p=" << p;
    EXPECT_DOUBLE_EQ(obs::exact_rank_percentile(reverse_order, p),
                     sorted[rank - 1])
        << "p=" << p;
  }
}

}  // namespace
}  // namespace mlcr::sim
