// Per-invocation measurements and aggregate statistics. This is the source of
// every number the benchmark harness reports (total/average startup latency,
// cold-start counts, warm starts by match level, cumulative series).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "containers/container.hpp"
#include "containers/matching.hpp"
#include "sim/invocation.hpp"

namespace mlcr::sim {

/// What happened when one invocation was scheduled: exactly the fields the
/// paper's numbers are computed from (startup latency, cold vs. warm start
/// and its Table-I level, failures and retries) plus the trace seq that
/// orders them. The startup breakdown stays on sim::StepResult, where the
/// tracer and the fault loop read it. Fields are ordered widest first so
/// the record packs into 40 bytes.
struct InvocationRecord {
  std::uint64_t seq = 0;
  containers::ContainerId container = containers::kInvalidContainer;
  double latency_s = 0.0;
  /// Start attempts made (>= 1); attempts - 1 of them were retried.
  std::size_t attempts = 1;
  FunctionTypeId function = containers::kInvalidFunctionType;
  containers::MatchLevel match = containers::MatchLevel::kNoMatch;
  bool cold = true;
  /// The invocation was never served: its start attempts were exhausted
  /// (faults) or its node crashed mid-execution. latency_s then holds the
  /// time the platform *spent* on it (attempts + backoffs), not a startup.
  bool failed = false;
};

class MetricsCollector {
 public:
  void record(InvocationRecord rec);
  void clear();

  /// Restore canonical trace-sequence order (stable sort on seq). Streaming
  /// ingestion (the serving front-end) records completions in dispatch
  /// order, not arrival order; sorting at episode end makes the cumulative
  /// series and the seq-order audit meaningful again. Moves records, so
  /// indices held for mark_failed() are stale afterwards.
  void sort_records_by_seq();

  [[nodiscard]] const std::vector<InvocationRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t invocation_count() const noexcept {
    return records_.size();
  }

  [[nodiscard]] double total_latency_s() const noexcept {
    return total_latency_s_;
  }
  [[nodiscard]] double average_latency_s() const noexcept;
  [[nodiscard]] std::size_t cold_start_count() const noexcept {
    return cold_starts_;
  }
  /// Warm starts served at a given match level (kL1..kL3).
  [[nodiscard]] std::size_t warm_starts_at(
      containers::MatchLevel level) const noexcept;

  /// Invocations that were never served (fault retries exhausted or node
  /// crashed mid-execution). Disjoint from cold/warm counts: a failed
  /// record contributes to neither.
  [[nodiscard]] std::size_t failed_count() const noexcept { return failed_; }
  /// Retried start attempts across all records (sum of attempts - 1).
  [[nodiscard]] std::size_t retry_count() const noexcept { return retries_; }
  /// Fraction of recorded invocations that were served. Contract: 1.0 on an
  /// empty collector (nothing was lost), 0.0 when every record failed.
  [[nodiscard]] double goodput() const noexcept;

  /// Retroactively fail the record at position `index` of records() (node
  /// crash killed its in-flight execution). Its latency stays in the totals
  /// (the time was spent) but it leaves the cold/warm counts. Requires
  /// index < invocation_count(); a second call on the same record is a
  /// no-op.
  void mark_failed(std::size_t index);

  /// Startup latencies of *served* invocations, in arrival order (for
  /// percentiles / box stats). Failed invocations are excluded: they have
  /// no startup to report. May be empty.
  [[nodiscard]] std::vector<double> latencies() const;
  /// Exact nearest-rank startup-latency percentile over served invocations
  /// (obs::exact_rank semantics: the sample of rank ceil(p/100 * n); always
  /// an observed value, no interpolation). p in [0, 100]. Contract: 0.0
  /// when no invocation was served (empty or all-failed episode) — never
  /// UB. Nearest-rank is order-free, so a fleet-wide percentile is
  /// obs::exact_rank_percentile over the union of the nodes' latencies().
  [[nodiscard]] double latency_percentile(double p) const;
  [[nodiscard]] double latency_p50() const { return latency_percentile(50.0); }
  [[nodiscard]] double latency_p95() const { return latency_percentile(95.0); }
  [[nodiscard]] double latency_p99() const { return latency_percentile(99.0); }
  /// Cumulative total latency after each invocation (paper Fig. 9 series).
  [[nodiscard]] std::vector<double> cumulative_latency() const;
  /// Cumulative cold-start count after each invocation (Fig. 9 series).
  [[nodiscard]] std::vector<std::size_t> cumulative_cold_starts() const;

  /// Invariant auditor: the incremental aggregates (total latency, cold
  /// count, per-level warm counts) match a recomputation from the records,
  /// and (when `require_seq_order`) records are in trace-sequence order.
  /// Streaming episodes pass false mid-flight — concurrent producers hand a
  /// node invocations in dispatch order — and sort_records_by_seq() at
  /// episode end restores the strict contract. Throws util::CheckError on
  /// violation; see util/audit.hpp for when it runs automatically.
  void audit(bool require_seq_order = true) const;

 private:
  friend struct MetricsTestPeer;  ///< test-only corruption hook (tests/sim)

  std::vector<InvocationRecord> records_;
  double total_latency_s_ = 0.0;
  std::size_t cold_starts_ = 0;
  std::array<std::size_t, 4> by_level_{};  // indexed by MatchLevel value
  std::size_t failed_ = 0;
  std::size_t retries_ = 0;
};

}  // namespace mlcr::sim
