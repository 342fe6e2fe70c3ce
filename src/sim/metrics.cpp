#include "sim/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics_registry.hpp"
#include "util/check.hpp"

namespace mlcr::sim {

void MetricsCollector::record(InvocationRecord rec) {
  total_latency_s_ += rec.latency_s;
  if (rec.failed)
    ++failed_;
  else if (rec.cold)
    ++cold_starts_;
  else
    ++by_level_[static_cast<std::size_t>(rec.match)];
  retries_ += rec.attempts - 1;
  records_.push_back(std::move(rec));
}

namespace {

bool seq_less(const InvocationRecord& a, const InvocationRecord& b) {
  return a.seq < b.seq;
}

}  // namespace

void MetricsCollector::sort_records_by_seq() {
  std::stable_sort(records_.begin(), records_.end(), seq_less);
}

void MetricsCollector::clear() {
  records_.clear();
  total_latency_s_ = 0.0;
  cold_starts_ = 0;
  by_level_.fill(0);
  failed_ = 0;
  retries_ = 0;
}

double MetricsCollector::goodput() const noexcept {
  if (records_.empty()) return 1.0;
  return static_cast<double>(records_.size() - failed_) /
         static_cast<double>(records_.size());
}

void MetricsCollector::mark_failed(std::size_t index) {
  MLCR_CHECK_MSG(index < records_.size(),
                 "mark_failed: no record at index " << index << " of "
                                                    << records_.size());
  InvocationRecord& r = records_[index];
  if (r.failed) return;
  if (r.cold)
    --cold_starts_;
  else
    --by_level_[static_cast<std::size_t>(r.match)];
  r.failed = true;
  ++failed_;
}

double MetricsCollector::average_latency_s() const noexcept {
  return records_.empty()
             ? 0.0
             : total_latency_s_ / static_cast<double>(records_.size());
}

std::size_t MetricsCollector::warm_starts_at(
    containers::MatchLevel level) const noexcept {
  return by_level_[static_cast<std::size_t>(level)];
}

std::vector<double> MetricsCollector::latencies() const {
  std::vector<double> out;
  out.reserve(records_.size());
  for (const auto& r : records_)
    if (!r.failed) out.push_back(r.latency_s);
  return out;
}

double MetricsCollector::latency_percentile(double p) const {
  return obs::exact_rank_percentile(latencies(), p);
}

std::vector<double> MetricsCollector::cumulative_latency() const {
  std::vector<double> out;
  out.reserve(records_.size());
  double total = 0.0;
  for (const auto& r : records_) {
    total += r.latency_s;
    out.push_back(total);
  }
  return out;
}

void MetricsCollector::audit(bool require_seq_order) const {
  double total = 0.0;
  std::size_t cold = 0;
  std::size_t failed = 0;
  std::size_t retries = 0;
  std::array<std::size_t, 4> by_level{};
  std::uint64_t prev_seq = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const InvocationRecord& r = records_[i];
    MLCR_CHECK_MSG(r.latency_s >= 0.0, "negative startup latency recorded");
    MLCR_CHECK_MSG(r.attempts >= 1, "record with zero start attempts");
    total += r.latency_s;
    if (r.failed)
      ++failed;
    else if (r.cold)
      ++cold;
    else
      ++by_level[static_cast<std::size_t>(r.match)];
    retries += r.attempts - 1;
    MLCR_CHECK_MSG(!require_seq_order || i == 0 || r.seq >= prev_seq,
                   "records out of trace-sequence order at seq " << r.seq);
    prev_seq = r.seq;
  }
  MLCR_CHECK_MSG(cold == cold_starts_, "cold-start count drifted: tracked "
                                           << cold_starts_ << ", recomputed "
                                           << cold);
  MLCR_CHECK_MSG(by_level == by_level_, "per-level warm counts drifted");
  MLCR_CHECK_MSG(failed == failed_,
                 "failed-invocation count drifted: tracked "
                     << failed_ << ", recomputed " << failed);
  MLCR_CHECK_MSG(retries == retries_, "retry count drifted: tracked "
                                          << retries_ << ", recomputed "
                                          << retries);
  MLCR_CHECK_MSG(failed_ + cold_starts_ + by_level_[1] + by_level_[2] +
                         by_level_[3] + by_level_[0] ==
                     records_.size(),
                 "failed + cold + warm does not sum to the record count");
  // sort_records_by_seq() reorders streamed records, so the recomputation
  // may fold in a different order than record() did; allow relative float
  // slack.
  MLCR_CHECK_MSG(
      std::abs(total - total_latency_s_) <=
          1e-9 * std::max(1.0, std::abs(total)),
      "total latency drifted: tracked " << total_latency_s_
                                        << ", recomputed " << total);
}

std::vector<std::size_t> MetricsCollector::cumulative_cold_starts() const {
  std::vector<std::size_t> out;
  out.reserve(records_.size());
  std::size_t total = 0;
  for (const auto& r : records_) {
    total += r.cold ? 1 : 0;
    out.push_back(total);
  }
  return out;
}

}  // namespace mlcr::sim
