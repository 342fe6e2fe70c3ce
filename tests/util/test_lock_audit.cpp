// Runtime lock-order validator tests. The validator methods are always
// compiled, so the core semantics (ascending-only acquisition, legal
// out-of-LIFO release, per-thread isolation) are testable in every build;
// only the LockRankScope instrumentation is gated on MLCR_AUDIT_ENABLED.
#include "util/lock_audit.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "util/check.hpp"

namespace mlcr::util {
namespace {

// Every test starts and ends with a clean thread-local stack; reset() on
// entry guards against a previous test's thrown CheckError leaving ranks
// registered.
class LockAuditTest : public ::testing::Test {
 protected:
  void SetUp() override { LockOrderValidator::reset(); }
  void TearDown() override { LockOrderValidator::reset(); }
};

TEST_F(LockAuditTest, AscendingAcquisitionIsLegal) {
  LockOrderValidator::acquired(lock_ranks::service_shard(0), "shard 0");
  LockOrderValidator::acquired(lock_ranks::service_shard(3), "shard 3");
  LockOrderValidator::acquired(lock_ranks::kTelemetry, "telemetry");
  LockOrderValidator::acquired(lock_ranks::registry_slot(0), "slot 0");
  EXPECT_EQ(LockOrderValidator::held_count(), 4U);
}

TEST_F(LockAuditTest, DescendingAcquisitionThrows) {
  LockOrderValidator::acquired(lock_ranks::kTelemetry, "telemetry");
  EXPECT_THROW(
      LockOrderValidator::acquired(lock_ranks::service_shard(2), "shard 2"),
      CheckError);
}

TEST_F(LockAuditTest, DoubleAcquisitionThrowsWithADistinctMessage) {
  LockOrderValidator::acquired(lock_ranks::service_shard(5), "shard 5");
  try {
    LockOrderValidator::acquired(lock_ranks::service_shard(5), "shard 5");
    FAIL() << "double acquisition must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("acquired twice"), std::string::npos);
  }
}

TEST_F(LockAuditTest, InversionMessageNamesTheDeclaredOrder) {
  // Telemetry is not a leaf, so only the ordering rule can reject this.
  LockOrderValidator::acquired(lock_ranks::kTelemetry, "telemetry");
  try {
    LockOrderValidator::acquired(lock_ranks::service_shard(1), "shard 1");
    FAIL() << "inversion must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("declared order"), std::string::npos);
  }
}

TEST_F(LockAuditTest, OutOfLifoReleaseIsLegal) {
  // A guard vector destroys front-to-back: releases arrive in acquisition
  // order, not reverse order.
  LockOrderValidator::acquired(lock_ranks::service_shard(0), "shard 0");
  LockOrderValidator::acquired(lock_ranks::service_shard(1), "shard 1");
  LockOrderValidator::acquired(lock_ranks::service_shard(2), "shard 2");
  LockOrderValidator::released(lock_ranks::service_shard(0));
  LockOrderValidator::released(lock_ranks::service_shard(1));
  EXPECT_EQ(LockOrderValidator::held_count(), 1U);
  // With shard 2 still held, a lower rank is still an inversion.
  EXPECT_THROW(
      LockOrderValidator::acquired(lock_ranks::service_shard(1), "shard 1"),
      CheckError);
  LockOrderValidator::released(lock_ranks::service_shard(2));
  EXPECT_EQ(LockOrderValidator::held_count(), 0U);
}

TEST_F(LockAuditTest, ReleasingAnUnheldRankIsIgnored) {
  LockOrderValidator::released(lock_ranks::kTelemetry);
  EXPECT_EQ(LockOrderValidator::held_count(), 0U);
  LockOrderValidator::acquired(lock_ranks::service_shard(7), "shard 7");
  LockOrderValidator::released(lock_ranks::kTelemetry);
  EXPECT_EQ(LockOrderValidator::held_count(), 1U);
}

TEST_F(LockAuditTest, ReacquisitionAfterReleaseIsLegal) {
  LockOrderValidator::acquired(lock_ranks::kTelemetry, "telemetry");
  LockOrderValidator::released(lock_ranks::kTelemetry);
  LockOrderValidator::acquired(lock_ranks::service_shard(0), "shard 0");
  LockOrderValidator::acquired(lock_ranks::kTelemetry, "telemetry");
  EXPECT_EQ(LockOrderValidator::held_count(), 2U);
}

TEST_F(LockAuditTest, HeldStacksAreThreadLocal) {
  LockOrderValidator::acquired(lock_ranks::kIndex, "index");
  // Another thread starts empty: acquiring a rank far below what this
  // thread holds is legal there.
  std::thread other([] {
    EXPECT_EQ(LockOrderValidator::held_count(), 0U);
    LockOrderValidator::acquired(lock_ranks::service_shard(0), "shard 0");
    EXPECT_EQ(LockOrderValidator::held_count(), 1U);
    LockOrderValidator::released(lock_ranks::service_shard(0));
  });
  other.join();
  EXPECT_EQ(LockOrderValidator::held_count(), 1U);
}

TEST_F(LockAuditTest, RankBandsKeepTheThreeFamiliesDisjoint) {
  // A service would need two million dispatch stripes to collide with the
  // index rank; treat the bands as the contract.
  EXPECT_LT(lock_ranks::service_shard(1'999'999), lock_ranks::kIndex);
  EXPECT_LT(lock_ranks::kIndex, lock_ranks::kTelemetry);
  EXPECT_LT(lock_ranks::kTelemetry, lock_ranks::registry_slot(0));
}

TEST_F(LockAuditTest, LockRankScopeMatchesTheBuildMode) {
  {
    const LockRankScope scope(lock_ranks::kTelemetry, "telemetry");
#if MLCR_AUDIT_ENABLED
    EXPECT_EQ(LockOrderValidator::held_count(), 1U);
#else
    EXPECT_EQ(LockOrderValidator::held_count(), 0U);
#endif
  }
  // Whether the scope was live or compiled away, nothing leaks past it.
  EXPECT_EQ(LockOrderValidator::held_count(), 0U);
}

TEST_F(LockAuditTest, MovedFromScopeDoesNotDoubleRelease) {
  LockRankScope outer(lock_ranks::service_shard(0), "shard 0");
  {
    const LockRankScope inner(std::move(outer));
#if MLCR_AUDIT_ENABLED
    EXPECT_EQ(LockOrderValidator::held_count(), 1U);
#endif
  }
  // inner released the rank; outer's destructor must not release again
  // (visible as held_count going "negative" via erase of a fresh rank).
  EXPECT_EQ(LockOrderValidator::held_count(), 0U);
  LockOrderValidator::acquired(lock_ranks::service_shard(0), "shard 0");
  EXPECT_EQ(LockOrderValidator::held_count(), 1U);
}

// The index lock and the registry slot locks are leaves. Ascending rank alone
// would allow both acquisitions below, so only the leaf rule rejects them.
TEST(LockAudit, NothingIsAcquiredUnderALeaf) {
  LockOrderValidator::reset();
  LockOrderValidator::acquired(lock_ranks::kIndex, "index");
  try {
    LockOrderValidator::acquired(lock_ranks::kTelemetry, "telemetry");
    FAIL() << "telemetry under the index lock must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("leaf"), std::string::npos);
  }
  LockOrderValidator::released(lock_ranks::kIndex);
  LockOrderValidator::acquired(lock_ranks::kTelemetry, "telemetry");
  LockOrderValidator::acquired(lock_ranks::registry_slot(0), "slot 0");
  EXPECT_THROW(
      LockOrderValidator::acquired(lock_ranks::registry_slot(1), "slot 1"),
      CheckError);
  LockOrderValidator::released(lock_ranks::registry_slot(0));
  LockOrderValidator::acquired(lock_ranks::registry_slot(1), "slot 1");
  EXPECT_EQ(LockOrderValidator::held_count(), 2U);
  LockOrderValidator::reset();
}

}  // namespace
}  // namespace mlcr::util
