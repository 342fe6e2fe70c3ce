// Correlated failure domains (DESIGN.md §14): the inert-plan oracle (a plan
// with domains but no event rate must reproduce DomainPlan{}'s independent
// windows bit-for-bit from the same stream), deterministic correlated
// sampling with
// domain/partial tagging, and the hardened validation diagnostics — every
// message must name the offending node and domain.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "faults/fault_plan.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace mlcr::faults {
namespace {

/// True when throwing `fn` produces a CheckError whose message contains
/// `needle` (the diagnostics validate/validate_domains promise).
template <typename Fn>
::testing::AssertionResult throws_mentioning(Fn fn, const std::string& needle) {
  try {
    fn();
  } catch (const util::CheckError& e) {
    if (std::string(e.what()).find(needle) != std::string::npos)
      return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "CheckError thrown but message lacks '" << needle
           << "': " << e.what();
  }
  return ::testing::AssertionFailure() << "no CheckError thrown";
}

/// Two racks over a 6-node fleet: {0,1,2} and {3,4,5}.
std::vector<FailureDomain> two_racks() {
  return {{0, {0, 1, 2}}, {1, {3, 4, 5}}};
}

TEST(FaultDomains, InertDomainPlanIsBitIdenticalToIndependentWindows) {
  // A plan with domains but zero event rate must consume exactly the draws
  // of DomainPlan{} (independent windows only), producing the identical
  // window list.
  DomainPlan dp;
  dp.domains = two_racks();
  dp.correlation = 0.9;
  ASSERT_TRUE(dp.inert());

  util::Rng independent_rng(777);
  util::Rng domain_rng(777);
  const auto independent = sample_domain_crash_windows(
      6, 100.0, /*crashes_per_node=*/0.8, /*mean_downtime_s=*/6.0,
      /*max_concurrent_down=*/3, DomainPlan{}, independent_rng);
  const auto domain = sample_domain_crash_windows(
      6, 100.0, /*crashes_per_node=*/0.8, /*mean_downtime_s=*/6.0,
      /*max_concurrent_down=*/3, dp, domain_rng);
  ASSERT_FALSE(independent.empty());
  ASSERT_EQ(independent.size(), domain.size());
  for (std::size_t i = 0; i < independent.size(); ++i)
    EXPECT_TRUE(independent[i] == domain[i]) << "window " << i << " diverges";
  // And the stream position afterwards is identical too: the next draw
  // from both generators must agree.
  EXPECT_DOUBLE_EQ(independent_rng.uniform(), domain_rng.uniform());
}

TEST(FaultDomains, CorrelatedSamplingIsDeterministicAndTagsDomains) {
  DomainPlan dp;
  dp.domains = two_racks();
  dp.correlation = 1.0;
  dp.crashes_per_domain = 2.0;
  dp.mean_downtime_s = 5.0;
  dp.partial_fraction = 1.0;
  ASSERT_FALSE(dp.inert());

  util::Rng rng_a(31);
  util::Rng rng_b(31);
  const auto a = sample_domain_crash_windows(6, 200.0, 0.2, 5.0, 5, dp,
                                             rng_a);
  const auto b = sample_domain_crash_windows(6, 200.0, 0.2, 5.0, 5, dp,
                                             rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(a[i] == b[i]);

  // The sampled set must validate as part of a plan naming the domains.
  FaultPlan plan;
  plan.crashes = a;
  plan.domains = dp.domains;
  plan.validate(6);

  // Domain events exist at these rates, every one is partial (fraction 1),
  // and each group of windows sharing (domain, down_at) stays inside the
  // domain's membership.
  std::map<std::pair<std::size_t, double>, std::vector<std::size_t>> groups;
  for (const CrashWindow& w : a) {
    if (w.domain == kNoDomain) {
      EXPECT_FALSE(w.partial);  // independent windows are full crashes
      continue;
    }
    EXPECT_TRUE(w.partial);
    groups[{w.domain, w.down_at}].push_back(w.node);
  }
  ASSERT_FALSE(groups.empty());
  for (const auto& [key, members] : groups) {
    const FailureDomain& rack = dp.domains[key.first];
    for (const std::size_t node : members)
      EXPECT_TRUE(std::find(rack.nodes.begin(), rack.nodes.end(), node) !=
                  rack.nodes.end())
          << "node " << node << " outside domain " << key.first;
  }
}

TEST(FaultDomains, FullCorrelationCrashesWholeRacksTogether) {
  DomainPlan dp;
  dp.domains = two_racks();
  dp.correlation = 1.0;
  dp.crashes_per_domain = 1.5;
  dp.mean_downtime_s = 3.0;

  util::Rng rng(907);
  // No independent background: every window is a domain window, and with
  // correlation 1 every member participates — groups are whole racks unless
  // the overlap/concurrency sweep dropped a member's window.
  const auto windows = sample_domain_crash_windows(6, 300.0, 0.0, 3.0, 5, dp,
                                                   rng);
  ASSERT_FALSE(windows.empty());
  std::map<std::pair<std::size_t, double>, std::size_t> group_sizes;
  for (const CrashWindow& w : windows) {
    ASSERT_NE(w.domain, kNoDomain);
    ++group_sizes[{w.domain, w.down_at}];
  }
  std::size_t full_racks = 0;
  for (const auto& [key, count] : group_sizes) {
    EXPECT_LE(count, dp.domains[key.first].nodes.size());
    if (count == dp.domains[key.first].nodes.size()) ++full_racks;
  }
  EXPECT_GT(full_racks, 0U);
}

TEST(FaultDomains, ValidateDomainsNamesTheOffendingNodeAndDomain) {
  const auto validate = [](std::vector<FailureDomain> domains,
                           std::size_t nodes) {
    return [domains = std::move(domains), nodes] {
      validate_domains(domains, nodes);
    };
  };

  EXPECT_TRUE(throws_mentioning(
      validate({{1, {0}}, {1, {1}}}, 6), "failure domain 1 is declared twice"));
  EXPECT_TRUE(throws_mentioning(validate({{0, {}}}, 6),
                                "failure domain 0 has no member nodes"));
  EXPECT_TRUE(throws_mentioning(
      validate({{2, {7}}}, 6),
      "failure domain 2 names node 7 outside the fleet"));
  EXPECT_TRUE(throws_mentioning(
      validate({{0, {0, 1}}, {1, {1, 2}}}, 6),
      "node 1 belongs to failure domains 0 and 1"));
}

TEST(FaultDomains, DomainPlanValidateRejectsBadKnobs) {
  const auto check = [](void (*mutate)(DomainPlan&), const char* needle) {
    DomainPlan dp;
    dp.domains = two_racks();
    mutate(dp);
    return throws_mentioning([&] { dp.validate(6); }, needle);
  };

  EXPECT_TRUE(check([](DomainPlan& dp) { dp.correlation = 1.5; },
                    "domain correlation must be in [0, 1]"));
  EXPECT_TRUE(check([](DomainPlan& dp) { dp.partial_fraction = -0.1; },
                    "domain partial_fraction must be in [0, 1]"));
  EXPECT_TRUE(check([](DomainPlan& dp) { dp.crashes_per_domain = -1.0; },
                    "crashes_per_domain"));
  EXPECT_TRUE(check([](DomainPlan& dp) { dp.mean_downtime_s = 0.0; },
                    "mean_downtime"));
}

TEST(FaultDomains, PlanValidateNamesWindowsDomainsAndTimeouts) {
  // A window naming a domain nobody declared.
  FaultPlan unknown;
  unknown.domains = two_racks();
  unknown.crashes.push_back({0, 1.0, 2.0, false, 9});
  EXPECT_TRUE(throws_mentioning([&] { unknown.validate(6); },
                                "names unknown failure domain 9"));

  // A window claiming a domain its node does not belong to.
  FaultPlan non_member;
  non_member.domains = two_racks();
  non_member.crashes.push_back({5, 1.0, 2.0, false, 0});
  EXPECT_TRUE(throws_mentioning([&] { non_member.validate(6); },
                                "but the node is not a member"));

  // Overlapping windows name the domain that produced the later one.
  FaultPlan overlap;
  overlap.domains = two_racks();
  overlap.crashes.push_back({0, 1.0, 5.0, false, kNoDomain});
  overlap.crashes.push_back({0, 3.0, 7.0, false, 0});
  EXPECT_TRUE(throws_mentioning([&] { overlap.validate(6); },
                                "overlaps an earlier window on node 0"));

  // SLO timeout overrides: non-positive and duplicated entries.
  FaultPlan bad_timeout;
  bad_timeout.function_timeouts_s.push_back({2, 0.0});
  EXPECT_TRUE(throws_mentioning([&] { bad_timeout.validate(6); },
                                "per-function timeout 0 (function 2)"));
  FaultPlan dup_timeout;
  dup_timeout.function_timeouts_s.push_back({2, 1.0});
  dup_timeout.function_timeouts_s.push_back({2, 2.0});
  EXPECT_TRUE(throws_mentioning([&] { dup_timeout.validate(6); },
                                "function 2 has two timeout overrides"));
}

}  // namespace
}  // namespace mlcr::faults
