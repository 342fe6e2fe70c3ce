// Runtime lock-order validator — the one statement and check of the lock
// order (DESIGN.md §12). simlint does not model lock order; its only lock
// rule, `bare-lock`, bans .lock()/.unlock() calls that bypass RAII guards.
//
//   service dispatch stripes (ascending)     rank 1'000'000 + stripe
//   fleet index lock (leaf)                  rank 3'000'000
//   telemetry window/trace mutex             rank 4'000'000
//   metrics registry slot locks (leaves)     rank 5'000'000 + slot
//
// Every thread keeps a thread-local stack of held ranks. An acquisition must
// carry a rank strictly greater than everything the thread already holds —
// equal is a double-acquisition, smaller is an ordering inversion — and
// nothing may be acquired while a leaf is held; each throws
// util::CheckError via MLCR_CHECK_MSG so tests can assert on it.
// Releases may happen in any order (a guard vector is destroyed
// front-to-back, releasing in acquisition order), so released() erases by
// value, not by popping. No production path holds two stripe mutexes at
// once; the rule keeps the validator exact if one ever does.
//
// The validator methods are always compiled — tests drive them directly —
// but instrumentation call sites go through LockRankScope, whose body
// compiles away unless MLCR_AUDIT_ENABLED (Debug builds, or MLCR_AUDIT=ON;
// CI's TSan job runs the serve suite with the validator live). Validation is
// purely thread-local: no atomics, no shared state, no interference with the
// locking it observes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/audit.hpp"
#include "util/check.hpp"

namespace mlcr::util {

namespace lock_ranks {

inline constexpr std::uint64_t kServiceShardBase = 1'000'000;
/// ShardedFleetIndex's one lock, a leaf: nothing is acquired while it is
/// held.
inline constexpr std::uint64_t kIndex = 3'000'000;
inline constexpr std::uint64_t kTelemetry = 4'000'000;
inline constexpr std::uint64_t kRegistrySlotBase = 5'000'000;

/// Rank of SchedulerService's dispatch-stripe mutex `shard` (ascending-index
/// acquisition maps to ascending ranks).
[[nodiscard]] constexpr std::uint64_t service_shard(std::size_t shard) {
  return kServiceShardBase + shard;
}

/// Rank of ConcurrentMetricsRegistry's per-slot lock, a leaf: the snapshot
/// path takes slots one at a time. The telemetry mutex (kTelemetry) sits
/// just below so the snapshot path may merge slots while holding it.
[[nodiscard]] constexpr std::uint64_t registry_slot(std::size_t slot) {
  return kRegistrySlotBase + slot;
}

/// Leaves must be the innermost lock a thread holds: the index lock and
/// every registry slot lock. Ascending rank alone would allow telemetry
/// under the index lock, or a higher slot under a lower one.
[[nodiscard]] constexpr bool is_leaf(std::uint64_t rank) {
  return rank == kIndex || rank >= kRegistrySlotBase;
}

}  // namespace lock_ranks

/// Thread-local acquisition-stack validator. Static methods only; the held
/// stack lives per thread.
class LockOrderValidator {
 public:
  /// Record an acquisition. Throws CheckError if `rank` is not strictly
  /// greater than every rank this thread already holds, or if it holds a
  /// leaf.
  static void acquired(std::uint64_t rank, const char* name) {
    std::vector<std::uint64_t>& stack = held();
    for (const std::uint64_t h : stack) {
      MLCR_CHECK_MSG(h != rank, "lock-order audit: '"
                                    << name << "' (rank " << rank
                                    << ") acquired twice on one thread");
      MLCR_CHECK_MSG(h < rank, "lock-order audit: '"
                                   << name << "' (rank " << rank
                                   << ") acquired while holding rank " << h
                                   << "; the declared order is service stripe "
                                      "mutexes (ascending) < index lock "
                                      "< telemetry mutex < registry slot "
                                      "locks");
      MLCR_CHECK_MSG(!lock_ranks::is_leaf(h),
                     "lock-order audit: '"
                         << name << "' (rank " << rank
                         << ") acquired while holding leaf rank " << h
                         << "; nothing may be acquired under the index lock "
                            "or a registry slot lock");
    }
    stack.push_back(rank);
  }

  /// Record a release. Out-of-LIFO release is legal (guard vectors destroy
  /// front-to-back); releasing a rank that is not held is ignored so scope
  /// teardown stays noexcept.
  static void released(std::uint64_t rank) noexcept {
    std::vector<std::uint64_t>& stack = held();
    const auto it = std::find(stack.rbegin(), stack.rend(), rank);
    if (it != stack.rend()) stack.erase(std::next(it).base());
  }

  /// Number of ranks the calling thread currently holds (for tests).
  [[nodiscard]] static std::size_t held_count() { return held().size(); }

  /// Drop all record for the calling thread (test isolation after a thrown
  /// CheckError left ranks registered).
  static void reset() { held().clear(); }

 private:
  [[nodiscard]] static std::vector<std::uint64_t>& held() {
    thread_local std::vector<std::uint64_t> stack;
    return stack;
  }
};

/// RAII companion for an already-taken guard: declare one right after the
/// lock it shadows. Compiles to nothing unless the auditor is enabled.
class LockRankScope {
 public:
  LockRankScope(std::uint64_t rank, const char* name) : rank_(rank) {
#if MLCR_AUDIT_ENABLED
    LockOrderValidator::acquired(rank_, name);
    armed_ = true;
#else
    (void)name;
#endif
  }

  LockRankScope(LockRankScope&& other) noexcept
      : rank_(other.rank_), armed_(other.armed_) {
    other.armed_ = false;
  }

  LockRankScope(const LockRankScope&) = delete;
  LockRankScope& operator=(const LockRankScope&) = delete;
  LockRankScope& operator=(LockRankScope&&) = delete;

  ~LockRankScope() {
#if MLCR_AUDIT_ENABLED
    if (armed_) LockOrderValidator::released(rank_);
#endif
  }

 private:
  std::uint64_t rank_;
  bool armed_ = false;
};

}  // namespace mlcr::util
