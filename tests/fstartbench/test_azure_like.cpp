#include "fstartbench/azure_like.hpp"

#include <gtest/gtest.h>

#include "policies/runner.hpp"
#include "util/check.hpp"

namespace mlcr::fstartbench {
namespace {

AzureLikeConfig small_config() {
  AzureLikeConfig cfg;
  cfg.num_functions = 400;  // enough for the fractions to concentrate
  cfg.window_s = 3600.0;
  return cfg;
}

TEST(AzureLike, ReproducesCitedInvocationStatistics) {
  const auto w = make_azure_like_workload(small_config(), util::Rng(1));
  // Paper-cited Azure statistics: ~19% invoked once, >40% invoked <= 2x.
  EXPECT_NEAR(w.fraction_invoked_once(), 0.19, 0.06);
  EXPECT_NEAR(w.fraction_invoked_at_most(2), 0.40, 0.08);
  EXPECT_GE(w.fraction_invoked_at_most(2), w.fraction_invoked_once());
}

TEST(AzureLike, HeavyTailedExecutionTimes) {
  const auto w = make_azure_like_workload(small_config(), util::Rng(2));
  // ~50% of functions run under a second (Sec. II-C citation).
  EXPECT_NEAR(w.fraction_short_running(1.0), 0.5, 0.12);
}

TEST(AzureLike, ImageSizesSpreadSeveralFold) {
  const auto w = make_azure_like_workload(small_config(), util::Rng(3));
  EXPECT_GT(w.image_size_spread(), 2.0);
}

TEST(AzureLike, PopulationAndTraceAreConsistent) {
  const auto w = make_azure_like_workload(small_config(), util::Rng(4));
  EXPECT_EQ(w.functions.size(), 400U);
  std::size_t total = 0;
  for (const std::size_t c : w.invocations_per_function) {
    EXPECT_GE(c, 1U);
    total += c;
  }
  EXPECT_EQ(w.trace.size(), total);
  for (const auto& inv : w.trace.invocations()) {
    EXPECT_LT(inv.function, w.functions.size());
    EXPECT_LE(inv.arrival_s, 3600.0);
  }
}

TEST(AzureLike, DeterministicGivenSeed) {
  const auto a = make_azure_like_workload(small_config(), util::Rng(5));
  const auto b = make_azure_like_workload(small_config(), util::Rng(5));
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace.at(i).function, b.trace.at(i).function);
    EXPECT_DOUBLE_EQ(a.trace.at(i).arrival_s, b.trace.at(i).arrival_s);
  }
}

TEST(AzureLike, MultiLevelReuseHelpsLowRepetitionWorkloads) {
  // The paper's motivation: when most functions are invoked once or twice,
  // same-config keep-alive rarely helps, but similar functions still share
  // OS/language stacks that multi-level reuse exploits.
  AzureLikeConfig cfg = small_config();
  cfg.num_functions = 120;
  cfg.window_s = 1800.0;
  const auto w = make_azure_like_workload(cfg, util::Rng(6));
  const sim::StartupCostModel cost(w.catalog);
  const double pool_mb = 6000.0;

  const auto lru = policies::run_system(policies::make_lru_system(),
                                        w.functions, w.catalog, cost, pool_mb,
                                        w.trace);
  const auto greedy = policies::run_system(
      policies::make_greedy_match_system(), w.functions, w.catalog, cost,
      pool_mb, w.trace);
  EXPECT_LT(greedy.cold_starts, lru.cold_starts);
  EXPECT_LT(greedy.total_latency_s, lru.total_latency_s);
  EXPECT_GT(greedy.warm_l1 + greedy.warm_l2, 0U);
}

TEST(AzureLike, ConfigValidation) {
  AzureLikeConfig cfg = small_config();
  cfg.window_s = 0.0;
  EXPECT_THROW((void)make_azure_like_workload(cfg, util::Rng(1)),
               util::CheckError);
  cfg = small_config();
  cfg.num_functions = 0;
  EXPECT_THROW((void)make_azure_like_workload(cfg, util::Rng(1)),
               util::CheckError);
}

}  // namespace
}  // namespace mlcr::fstartbench
