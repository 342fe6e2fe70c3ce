#include "containers/pool.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace mlcr::containers {
namespace {

Container make_container(ContainerId id, double memory_mb, double idle_at,
                         FunctionTypeId fn = 0, double cost_s = 1.0) {
  Container c;
  c.id = id;
  c.state = ContainerState::kIdle;
  c.last_idle_at = idle_at;
  c.memory_mb = memory_mb;
  c.last_function = fn;
  c.last_startup_cost_s = cost_s;
  return c;
}

WarmPool make_lru_pool(double capacity) {
  return WarmPool(capacity, std::make_unique<LruEviction>());
}

TEST(WarmPool, AdmitAndTake) {
  WarmPool pool = make_lru_pool(1000.0);
  EXPECT_EQ(pool.admit(make_container(1, 100.0, 0.0), 0.0),
            WarmPool::AdmitOutcome::kAdmitted);
  EXPECT_EQ(pool.size(), 1U);
  EXPECT_DOUBLE_EQ(pool.used_mb(), 100.0);
  auto taken = pool.take(1, 1.0);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->id, 1U);
  EXPECT_TRUE(pool.empty());
  EXPECT_DOUBLE_EQ(pool.used_mb(), 0.0);
}

TEST(WarmPool, TakeUnknownReturnsNullopt) {
  WarmPool pool = make_lru_pool(1000.0);
  EXPECT_EQ(pool.take(99, 0.0), std::nullopt);
}

TEST(WarmPool, LruEvictsOldestIdle) {
  WarmPool pool = make_lru_pool(250.0);
  (void)pool.admit(make_container(1, 100.0, 1.0), 1.0);
  (void)pool.admit(make_container(2, 100.0, 2.0), 2.0);
  // Needs 100 MB; container 1 (oldest idle) must go.
  EXPECT_EQ(pool.admit(make_container(3, 100.0, 3.0), 3.0),
            WarmPool::AdmitOutcome::kAdmitted);
  EXPECT_EQ(pool.find(1), nullptr);
  EXPECT_NE(pool.find(2), nullptr);
  EXPECT_NE(pool.find(3), nullptr);
  EXPECT_EQ(pool.eviction_count(), 1U);
}

TEST(WarmPool, EvictsAsManyAsNeeded) {
  WarmPool pool = make_lru_pool(300.0);
  (void)pool.admit(make_container(1, 100.0, 1.0), 1.0);
  (void)pool.admit(make_container(2, 100.0, 2.0), 2.0);
  (void)pool.admit(make_container(3, 100.0, 3.0), 3.0);
  // 250 MB into a 300 MB pool holding 3x100 MB: LRU evicts 1, then 2, then 3
  // (100 + 250 and 200 + 250 both still exceed capacity).
  EXPECT_EQ(pool.admit(make_container(4, 250.0, 4.0), 4.0),
            WarmPool::AdmitOutcome::kAdmitted);
  EXPECT_EQ(pool.size(), 1U);
  EXPECT_NE(pool.find(4), nullptr);
  EXPECT_EQ(pool.eviction_count(), 3U);
}

TEST(WarmPool, OversizedContainerRejected) {
  WarmPool pool = make_lru_pool(100.0);
  EXPECT_EQ(pool.admit(make_container(1, 200.0, 0.0), 0.0),
            WarmPool::AdmitOutcome::kRejected);
  EXPECT_EQ(pool.rejection_count(), 1U);
}

TEST(WarmPool, RejectWhenFullPolicyRejectsInsteadOfEvicting) {
  WarmPool pool(150.0, std::make_unique<RejectWhenFull>());
  (void)pool.admit(make_container(1, 100.0, 0.0), 0.0);
  EXPECT_EQ(pool.admit(make_container(2, 100.0, 1.0), 1.0),
            WarmPool::AdmitOutcome::kRejected);
  EXPECT_NE(pool.find(1), nullptr);
  EXPECT_EQ(pool.eviction_count(), 0U);
  EXPECT_EQ(pool.rejection_count(), 1U);
}

TEST(WarmPool, DuplicateAdmitIsAnError) {
  WarmPool pool = make_lru_pool(1000.0);
  (void)pool.admit(make_container(1, 10.0, 0.0), 0.0);
  EXPECT_THROW((void)pool.admit(make_container(1, 10.0, 1.0), 1.0),
               util::CheckError);
}

TEST(WarmPool, AdmitRequiresIdleState) {
  WarmPool pool = make_lru_pool(1000.0);
  Container busy = make_container(1, 10.0, 0.0);
  busy.state = ContainerState::kBusy;
  EXPECT_THROW((void)pool.admit(std::move(busy), 0.0), util::CheckError);
}

TEST(WarmPool, IdleContainersSortedByRecency) {
  WarmPool pool = make_lru_pool(1000.0);
  (void)pool.admit(make_container(3, 10.0, 5.0), 5.0);
  (void)pool.admit(make_container(1, 10.0, 2.0), 5.0);
  (void)pool.admit(make_container(2, 10.0, 9.0), 9.0);
  const auto idle = pool.idle_containers();
  ASSERT_EQ(idle.size(), 3U);
  EXPECT_EQ(idle[0]->id, 1U);
  EXPECT_EQ(idle[1]->id, 3U);
  EXPECT_EQ(idle[2]->id, 2U);
}

TEST(WarmPool, ExpireOlderThanRemovesStale) {
  WarmPool pool = make_lru_pool(1000.0);
  (void)pool.admit(make_container(1, 10.0, 0.0), 0.0);
  (void)pool.admit(make_container(2, 10.0, 50.0), 50.0);
  EXPECT_EQ(pool.expire_older_than(100.0, 60.0), 1U);
  EXPECT_EQ(pool.find(1), nullptr);
  EXPECT_NE(pool.find(2), nullptr);
  EXPECT_EQ(pool.eviction_count(), 1U);
}

TEST(WarmPool, PeakUsageTracksHighWaterMark) {
  WarmPool pool = make_lru_pool(1000.0);
  (void)pool.admit(make_container(1, 400.0, 0.0), 0.0);
  (void)pool.admit(make_container(2, 500.0, 1.0), 1.0);
  (void)pool.take(1, 2.0);
  EXPECT_DOUBLE_EQ(pool.used_mb(), 500.0);
  EXPECT_DOUBLE_EQ(pool.peak_used_mb(), 900.0);
}

TEST(FaasCache, EvictsMinimumPriority) {
  WarmPool pool(250.0, std::make_unique<FaasCacheEviction>());
  // fn 0 admitted twice (frequency 2) with high cost; fn 1 cheap & rare.
  (void)pool.admit(make_container(1, 100.0, 1.0, /*fn=*/0, /*cost=*/10.0), 1.0);
  (void)pool.admit(make_container(2, 100.0, 2.0, /*fn=*/1, /*cost=*/0.1), 2.0);
  // Admitting 3 (fn 0 again) needs an eviction: container 2 has the lowest
  // greedy-dual priority (cheap, infrequent) even though 1 is older.
  (void)pool.admit(make_container(3, 100.0, 3.0, /*fn=*/0, /*cost=*/10.0), 3.0);
  EXPECT_EQ(pool.find(2), nullptr);
  EXPECT_NE(pool.find(1), nullptr);
}

TEST(FaasCache, ClockAdvancesWithEvictions) {
  auto policy = std::make_unique<FaasCacheEviction>();
  FaasCacheEviction* raw = policy.get();
  WarmPool pool(150.0, std::move(policy));
  (void)pool.admit(make_container(1, 100.0, 1.0, 0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(raw->clock(), 0.0);
  (void)pool.admit(make_container(2, 100.0, 2.0, 0, 1.0), 2.0);
  EXPECT_GT(raw->clock(), 0.0);
}

// Property sweep: the capacity invariant (used <= capacity) and non-negative
// accounting hold under arbitrary admit/take sequences.
class PoolProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PoolProperty, CapacityInvariantUnderRandomOperations) {
  util::Rng rng(GetParam());
  WarmPool pool = make_lru_pool(500.0);
  std::vector<ContainerId> inside;
  ContainerId next_id = 0;
  for (int step = 0; step < 400; ++step) {
    if (inside.empty() || rng.bernoulli(0.6)) {
      Container c = make_container(next_id++, rng.uniform(10.0, 220.0),
                                   static_cast<double>(step));
      const ContainerId id = c.id;
      if (pool.admit(std::move(c), static_cast<double>(step)) ==
          WarmPool::AdmitOutcome::kAdmitted)
        inside.push_back(id);
    } else {
      const std::size_t pick = rng.uniform_index(inside.size());
      (void)pool.take(inside[pick], static_cast<double>(step));
      inside.erase(inside.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    // Evictions may have removed ids we still track; prune them.
    std::erase_if(inside,
                  [&](ContainerId id) { return pool.find(id) == nullptr; });
    EXPECT_LE(pool.used_mb(), pool.capacity_mb() + 1e-9);
    EXPECT_GE(pool.used_mb(), -1e-9);
    EXPECT_EQ(pool.size(), inside.size());
    EXPECT_LE(pool.used_mb(), pool.peak_used_mb() + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 123, 999));

}  // namespace
}  // namespace mlcr::containers
