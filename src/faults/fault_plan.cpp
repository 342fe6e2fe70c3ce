#include "faults/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "util/check.hpp"

namespace mlcr::faults {

namespace {

/// Names a window's domain for diagnostics: "domain 3" or "no domain".
[[nodiscard]] std::string domain_name(std::size_t domain) {
  return domain == kNoDomain ? "no domain"
                             : "domain " + std::to_string(domain);
}

/// Per-node independent candidate windows: a Poisson count, uniform downs,
/// sorted, one exponential downtime per accepted down.
[[nodiscard]] std::vector<CrashWindow> independent_candidates(
    std::size_t nodes, double span_s, double crashes_per_node,
    double mean_downtime_s, util::Rng& rng) {
  std::vector<CrashWindow> candidates;
  for (std::size_t node = 0; node < nodes; ++node) {
    const std::uint64_t count =
        crashes_per_node > 0.0 ? rng.poisson(crashes_per_node) : 0;
    std::vector<double> downs;
    for (std::uint64_t k = 0; k < count; ++k)
      downs.push_back(rng.uniform(0.0, span_s));
    std::sort(downs.begin(), downs.end());
    double earliest = 0.0;
    for (const double down_at : downs) {
      if (down_at < earliest) continue;  // would overlap this node's last
      const double downtime = rng.exponential(1.0 / mean_downtime_s);
      CrashWindow w;
      w.node = node;
      w.down_at = down_at;
      w.up_at = down_at + std::max(downtime, 1e-9);
      candidates.push_back(w);
      earliest = w.up_at;
    }
  }
  return candidates;
}

/// Global (down_at, node) sort plus the concurrency-cap sweep: drop any
/// window that would push the number of simultaneously-down nodes over the
/// cap.
[[nodiscard]] std::vector<CrashWindow> cap_concurrency(
    std::vector<CrashWindow> candidates, std::size_t max_concurrent_down) {
  std::sort(candidates.begin(), candidates.end(),
            [](const CrashWindow& a, const CrashWindow& b) {
              if (a.down_at != b.down_at) return a.down_at < b.down_at;
              return a.node < b.node;
            });

  std::vector<CrashWindow> out;
  for (const CrashWindow& w : candidates) {
    std::size_t down = 0;  // accepted windows still open at w.down_at
    for (const CrashWindow& o : out)
      if (o.up_at > w.down_at) ++down;
    if (down >= max_concurrent_down) continue;
    out.push_back(w);
  }
  return out;
}

}  // namespace

double backoff_s(std::size_t failed_attempt, double u) {
  MLCR_CHECK_MSG(failed_attempt >= 1, "backoff is for a 1-based attempt");
  const double scaled =
      kBaseBackoffS *
      std::pow(kBackoffMultiplier, static_cast<double>(failed_attempt - 1));
  return std::min(scaled, kMaxBackoffS) * (1.0 + kBackoffJitterFrac * u);
}

void validate_domains(const std::vector<FailureDomain>& domains,
                      std::size_t nodes) {
  std::map<std::size_t, std::size_t> id_at;       // domain id -> list index
  std::map<std::size_t, std::size_t> node_owner;  // node -> domain id
  for (std::size_t i = 0; i < domains.size(); ++i) {
    const FailureDomain& d = domains[i];
    const auto [it, fresh] = id_at.emplace(d.id, i);
    MLCR_CHECK_MSG(fresh, "failure domain " << d.id << " is declared twice "
                                            << "(entries " << it->second
                                            << " and " << i << ")");
    MLCR_CHECK_MSG(!d.nodes.empty(),
                   "failure domain " << d.id << " has no member nodes");
    for (const std::size_t node : d.nodes) {
      MLCR_CHECK_MSG(node < nodes, "failure domain "
                                       << d.id << " names node " << node
                                       << " outside the fleet of " << nodes
                                       << " nodes");
      const auto [owner, taken] = node_owner.emplace(node, d.id);
      MLCR_CHECK_MSG(taken, "node " << node << " belongs to failure domains "
                                    << owner->second << " and " << d.id
                                    << " — domains must be disjoint");
    }
  }
}

bool DomainPlan::inert() const noexcept {
  return domains.empty() || correlation == 0.0 || crashes_per_domain == 0.0;
}

void DomainPlan::validate(std::size_t nodes) const {
  validate_domains(domains, nodes);
  MLCR_CHECK_MSG(correlation >= 0.0 && correlation <= 1.0,
                 "domain correlation must be in [0, 1]: " << correlation);
  MLCR_CHECK_MSG(
      partial_fraction >= 0.0 && partial_fraction <= 1.0,
      "domain partial_fraction must be in [0, 1]: " << partial_fraction);
  MLCR_CHECK_MSG(crashes_per_domain >= 0.0,
                 "crashes_per_domain must be non-negative: "
                     << crashes_per_domain);
  MLCR_CHECK_MSG(mean_downtime_s > 0.0,
                 "domain mean_downtime_s must be positive: "
                     << mean_downtime_s);
}

std::optional<double> FaultPlan::timeout_for(
    std::size_t function) const noexcept {
  for (const auto& [fn, deadline] : function_timeouts_s)
    if (fn == function) return deadline;
  return timeout_s;
}

bool FaultPlan::faultless() const noexcept {
  return startup_failure_prob == 0.0 && repack_failure_prob == 0.0 &&
         !timeout_s.has_value() && function_timeouts_s.empty() &&
         crashes.empty();
}

void FaultPlan::validate(std::size_t nodes) const {
  MLCR_CHECK_MSG(
      startup_failure_prob >= 0.0 && startup_failure_prob <= 1.0,
      "startup_failure_prob must be in [0, 1]: " << startup_failure_prob);
  MLCR_CHECK_MSG(
      repack_failure_prob >= 0.0 && repack_failure_prob <= 1.0,
      "repack_failure_prob must be in [0, 1]: " << repack_failure_prob);
  if (timeout_s.has_value())
    MLCR_CHECK_MSG(*timeout_s > 0.0, "timeout_s must be positive");
  for (std::size_t i = 0; i < function_timeouts_s.size(); ++i) {
    MLCR_CHECK_MSG(function_timeouts_s[i].second > 0.0,
                   "per-function timeout " << i << " (function "
                                           << function_timeouts_s[i].first
                                           << ") must be positive");
    for (std::size_t j = 0; j < i; ++j)
      MLCR_CHECK_MSG(
          function_timeouts_s[j].first != function_timeouts_s[i].first,
          "function " << function_timeouts_s[i].first
                      << " has two timeout overrides (entries " << j << " and "
                      << i << ")");
  }
  MLCR_CHECK_MSG(retry.max_attempts >= 1,
                 "retry.max_attempts must be >= 1 (1 disables retries)");

  validate_domains(domains, nodes);

  // Per node: windows sorted by down_at, each window non-inverted, no
  // overlap (a node cannot crash while already down, partially or fully),
  // and domain references resolve to a domain the node belongs to.
  std::map<std::size_t, double> last_up;
  double prev_down = 0.0;
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    const CrashWindow& w = crashes[i];
    MLCR_CHECK_MSG(w.node < nodes, "crash window " << i << " names node "
                                                   << w.node
                                                   << " outside the fleet");
    MLCR_CHECK_MSG(w.down_at >= 0.0 && w.up_at > w.down_at,
                   "crash window " << i << " on node " << w.node
                                   << " is inverted or negative ([" << w.down_at
                                   << ", " << w.up_at << "])");
    MLCR_CHECK_MSG(i == 0 || w.down_at >= prev_down,
                   "crash windows must be sorted by down_at (window " << i
                                                                      << ")");
    prev_down = w.down_at;
    const auto it = last_up.find(w.node);
    MLCR_CHECK_MSG(it == last_up.end() || w.down_at >= it->second,
                   "crash window " << i << " (" << domain_name(w.domain)
                                   << ") overlaps an earlier window on "
                                   << "node " << w.node);
    last_up[w.node] = w.up_at;
    if (w.domain == kNoDomain) continue;
    const auto owner = std::find_if(
        domains.begin(), domains.end(),
        [&](const FailureDomain& d) { return d.id == w.domain; });
    MLCR_CHECK_MSG(owner != domains.end(),
                   "crash window " << i << " on node " << w.node
                                   << " names unknown failure domain "
                                   << w.domain);
    MLCR_CHECK_MSG(std::find(owner->nodes.begin(), owner->nodes.end(),
                             w.node) != owner->nodes.end(),
                   "crash window " << i << " puts node " << w.node
                                   << " in failure domain " << w.domain
                                   << ", but the node is not a member");
  }
}

std::vector<CrashWindow> sample_domain_crash_windows(
    std::size_t nodes, double span_s, double crashes_per_node,
    double mean_downtime_s, std::size_t max_concurrent_down,
    const DomainPlan& domains, util::Rng& rng) {
  MLCR_CHECK(nodes > 0);
  MLCR_CHECK(span_s > 0.0);
  MLCR_CHECK(crashes_per_node >= 0.0);
  MLCR_CHECK(mean_downtime_s > 0.0);
  MLCR_CHECK_MSG(max_concurrent_down < nodes,
                 "at least one node must always stay up");
  domains.validate(nodes);

  // Phase 1 — the independent candidates. An inert DomainPlan draws nothing
  // after this point.
  std::vector<CrashWindow> independent = independent_candidates(
      nodes, span_s, crashes_per_node, mean_downtime_s, rng);
  if (domains.inert())
    return cap_concurrency(std::move(independent), max_concurrent_down);

  // Phase 2 — domain events, per domain in listed order. Every event draws
  // (down_at, downtime, partial) once and one participation Bernoulli per
  // member node in listed order, unconditionally — fixed draw order, so the
  // stream position never depends on which members happen to participate.
  std::vector<CrashWindow> correlated;
  for (const FailureDomain& d : domains.domains) {
    const std::uint64_t count = rng.poisson(domains.crashes_per_domain);
    std::vector<double> downs;
    for (std::uint64_t k = 0; k < count; ++k)
      downs.push_back(rng.uniform(0.0, span_s));
    std::sort(downs.begin(), downs.end());
    for (const double down_at : downs) {
      const double downtime =
          rng.exponential(1.0 / domains.mean_downtime_s);
      const bool partial = rng.bernoulli(domains.partial_fraction);
      const double up_at = down_at + std::max(downtime, 1e-9);
      for (const std::size_t node : d.nodes) {
        const bool member_down = rng.bernoulli(domains.correlation);
        if (!member_down) continue;
        CrashWindow w;
        w.node = node;
        w.down_at = down_at;
        w.up_at = up_at;
        w.partial = partial;
        w.domain = d.id;
        correlated.push_back(w);
      }
    }
  }

  // Phase 3 — per-node merge: first window wins (a node cannot crash while
  // already down), independent windows before domain windows on down_at
  // ties, then domain-list order. Ordering mirrors FaultPlan::validate's
  // non-overlap rule, so the merged set always validates.
  std::vector<CrashWindow> merged;
  for (std::size_t node = 0; node < nodes; ++node) {
    std::vector<CrashWindow> mine;
    for (const CrashWindow& w : independent)
      if (w.node == node) mine.push_back(w);
    for (const CrashWindow& w : correlated)
      if (w.node == node) mine.push_back(w);
    std::stable_sort(mine.begin(), mine.end(),
                     [](const CrashWindow& a, const CrashWindow& b) {
                       if (a.down_at != b.down_at)
                         return a.down_at < b.down_at;
                       // Independent (kNoDomain == SIZE_MAX... sorts last by
                       // id), so compare on "has a domain" explicitly.
                       return (a.domain == kNoDomain) >
                              (b.domain == kNoDomain);
                     });
    double earliest = 0.0;
    for (const CrashWindow& w : mine) {
      if (w.down_at < earliest) continue;  // absorbed by the open window
      merged.push_back(w);
      earliest = w.up_at;
    }
  }
  return cap_concurrency(std::move(merged), max_concurrent_down);
}

}  // namespace mlcr::faults
