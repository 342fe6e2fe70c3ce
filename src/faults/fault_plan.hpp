// Deterministic fault model (DESIGN.md §9, §14): what can go wrong in an
// episode and how the platform is allowed to react. A FaultPlan is pure data
// — the fault *kinds* and their rates — so the same plan can drive a single
// ClusterEnv, every node of a FleetEnv, or a bench sweep, and two runs with
// the same plan and the same Rng stream inject byte-identical faults.
//
// Fault kinds:
//   startup failure — a cold or repack start dies at the end of its startup
//                     sequence (Bernoulli per risky start).
//   repack failure  — the volume swap of a Table-I L1/L2 reuse fails; the
//                     candidate container is destroyed and the start
//                     degrades to cold, paying the attempted swap.
//   timeout         — startup + execution would exceed a deadline; the
//                     container is killed at the deadline.
//   node crash      — a fleet node goes down for a window: its warm pool is
//                     lost, in-flight work is killed, offers are rejected
//                     until recovery (it rejoins with an empty pool).
//   partial crash   — the node loses compute (in-flight work killed, offers
//                     rejected) but its warm pool survives the window, so it
//                     rejoins with warm state instead of a cold-start storm.
//
// Failure domains (DESIGN.md §14): nodes share racks/zones, and a domain-
// level event crashes several members at once. Domain windows are sampled
// from the same single split stream as the independent ones, in a fixed
// draw order, so a plan's faults stay a pure function of (plan, stream).
//
// Failed starts are retried under a RetryPolicy with exponential backoff in
// *simulated* time; when attempts are exhausted the invocation fails.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace mlcr::faults {

/// How failed starts (startup failure / timeout) are retried. The default
/// means "no retry": one attempt, then the invocation fails.
struct RetryPolicy {
  /// Total start attempts per invocation (>= 1); 1 disables retries.
  std::size_t max_attempts = 1;
};

/// Backoff before retry k (1-based) is
///   min(kBaseBackoffS * kBackoffMultiplier^(k-1), kMaxBackoffS)
///     * (1 + kBackoffJitterFrac * u),
/// u ~ U[0,1) from the injector's stream. Seconds of simulated time.
inline constexpr double kBaseBackoffS = 0.5;
inline constexpr double kBackoffMultiplier = 2.0;
inline constexpr double kMaxBackoffS = 30.0;
inline constexpr double kBackoffJitterFrac = 0.1;

/// Deterministic backoff before the retry that follows failed attempt
/// `failed_attempt` (1-based), given jitter draw `u` in [0, 1).
[[nodiscard]] double backoff_s(std::size_t failed_attempt, double u);

/// "This window was not caused by a failure domain" sentinel for
/// CrashWindow::domain.
inline constexpr std::size_t kNoDomain = static_cast<std::size_t>(-1);

/// One node-down window in the fleet. Half-open in spirit: the node crashes
/// at down_at and serves again from up_at (with an empty pool after a full
/// crash; with its surviving warm pool after a partial one).
struct CrashWindow {
  std::size_t node = 0;
  double down_at = 0.0;
  double up_at = 0.0;
  /// Partial crash: compute is lost (in-flight work killed, offers
  /// rejected) but the warm pool survives to recovery.
  bool partial = false;
  /// Failure-domain id that produced this window; kNoDomain for
  /// independently sampled / hand-placed windows.
  std::size_t domain = kNoDomain;

  friend bool operator==(const CrashWindow& a, const CrashWindow& b) {
    return a.node == b.node && a.down_at == b.down_at && a.up_at == b.up_at &&
           a.partial == b.partial && a.domain == b.domain;
  }
};

/// One rack/zone: a named set of member nodes that can fail together.
struct FailureDomain {
  std::size_t id = 0;
  std::vector<std::size_t> nodes;  ///< member node indices, any order
};

/// Validate a domain list against a fleet of `nodes` nodes: ids unique,
/// every domain non-empty, members inside the fleet, memberships disjoint.
/// Throws util::CheckError naming the offending domain and node.
void validate_domains(const std::vector<FailureDomain>& domains,
                      std::size_t nodes);

/// Correlated-failure sampling knobs for sample_domain_crash_windows. A
/// default-constructed plan is inert: zero correlation draws no domain
/// events, so the sampler draws independent per-node windows only. Any
/// inert plan, with or without domains, draws exactly what DomainPlan{}
/// draws (pinned in tests/faults).
struct DomainPlan {
  std::vector<FailureDomain> domains;
  /// P(a member node participates in one of its domain's events).
  double correlation = 0.0;
  /// Expected domain-level events per domain over the sampled span.
  double crashes_per_domain = 0.0;
  /// Mean exponential downtime of a domain event.
  double mean_downtime_s = 30.0;
  /// P(a domain event is a partial crash — pool survives).
  double partial_fraction = 0.0;

  /// True when no domain event can ever fire (no domains, zero correlation
  /// or zero event rate) — the sampler then draws nothing beyond the
  /// independent windows.
  [[nodiscard]] bool inert() const noexcept;

  /// Throws util::CheckError on malformed plans, naming the offending
  /// domain/node: bad memberships (see validate_domains), correlation or
  /// partial_fraction outside [0, 1], negative event rate, non-positive
  /// downtime.
  void validate(std::size_t nodes) const;
};

/// The full fault configuration of an episode. Default-constructed plans
/// are faultless, and a faultless plan leaves every simulation path
/// bit-identical to running with no injector attached.
struct FaultPlan {
  /// P(a cold or repack start fails), drawn once per attempt.
  double startup_failure_prob = 0.0;
  /// P(the volume swap of an L1/L2 repack reuse fails), drawn per repack.
  double repack_failure_prob = 0.0;
  /// Kill any attempt whose startup + execution exceeds this deadline.
  std::optional<double> timeout_s;
  /// Per-function deadline overrides (function id -> deadline), for
  /// SLO-based timeout tuning: functions absent here use timeout_s. An
  /// override with no global timeout_s applies only to the named functions.
  std::vector<std::pair<std::size_t, double>> function_timeouts_s;
  RetryPolicy retry;
  /// Node-down windows, fleet-wide. Must be sorted by down_at and
  /// non-overlapping per node (validate() checks).
  std::vector<CrashWindow> crashes;
  /// Rack/zone membership metadata: validates windows' domain references
  /// and names domains in diagnostics/traces. Carrying domains alone (no
  /// windows) injects nothing.
  std::vector<FailureDomain> domains;

  /// Effective deadline for `function`: its override, else timeout_s, else
  /// none.
  [[nodiscard]] std::optional<double> timeout_for(
      std::size_t function) const noexcept;

  [[nodiscard]] bool faultless() const noexcept;
  /// Throws util::CheckError on malformed plans: probabilities outside
  /// [0, 1], max_attempts == 0, negative timeout, crash windows
  /// unsorted, inverted, or overlapping per node, naming a node index
  /// >= `nodes` (pass SIZE_MAX when the fleet size is unknown), bad domain
  /// memberships, or windows referencing an unknown domain / a domain the
  /// window's node does not belong to. Every message names the offending
  /// window, node and domain.
  void validate(std::size_t nodes) const;
};

/// Sample crash windows for an `nodes`-node fleet over [0, span_s], from one
/// stream under a fixed draw order (DESIGN.md §14):
///   1. independent per-node windows: `crashes_per_node` expected crashes
///      per node (Poisson-thinned uniform arrivals) with exponential
///      downtime of mean `mean_downtime_s`; an inert `domains` (e.g.
///      DomainPlan{}) draws nothing more;
///   2. then, per domain in listed order, Poisson domain events — each
///      drawing (down_at, downtime, partial) once and one participation
///      Bernoulli per member node in listed order;
///   3. per node, overlapping later windows are dropped (first window wins,
///      independent before domain on down_at ties), then a global sweep
///      drops any window that would put more than `max_concurrent_down`
///      nodes down at once, so benches can guarantee surviving capacity and
///      assert zero lost invocations.
/// Domain windows carry their domain id and partial flag. Result is sorted
/// by down_at.
[[nodiscard]] std::vector<CrashWindow> sample_domain_crash_windows(
    std::size_t nodes, double span_s, double crashes_per_node,
    double mean_downtime_s, std::size_t max_concurrent_down,
    const DomainPlan& domains, util::Rng& rng);

}  // namespace mlcr::faults
