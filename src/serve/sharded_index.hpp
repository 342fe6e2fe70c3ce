// The serving layer's fleet index (DESIGN.md §11): one fleet::FleetIndex
// behind one std::shared_mutex. Routing reads it through read(), which runs
// a function over the index under the shared lock — the same index and the
// same routing functions (fleet::warm_aware_node, fleet::fail_over)
// FleetEnv::run uses, so every query is bit-identical to the fleet's.
// Dispatch and the janitor write it under the unique lock, one node at a
// time, while holding that node's dispatch-stripe mutex. The index is not
// sharded; the type keeps its name for callers outside the library.
#pragma once

#include <cstddef>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "fleet/fleet_index.hpp"
#include "util/lock_audit.hpp"

namespace mlcr::sim {
class ClusterEnv;
}

namespace mlcr::serve {

class ShardedFleetIndex {
 public:
  /// `track_warm` as in fleet::FleetIndex.
  ShardedFleetIndex(std::size_t nodes, bool track_warm)
      : index_(nodes, track_warm) {}

  /// Fixed at construction, so readable without the lock.
  [[nodiscard]] std::size_t node_count() const noexcept {
    return index_.node_count();
  }
  [[nodiscard]] bool tracks_warm() const noexcept {
    return index_.tracks_warm();
  }

  /// Writer: re-derive `node`'s entry from its environment. The caller must
  /// hold whatever lock guards the env itself (the service's dispatch-stripe
  /// mutex) while this reads it.
  void update(std::size_t node, const sim::ClusterEnv& env) {
    std::unique_lock lock(index_mutex_, std::try_to_lock);
    spin_then_block(lock);
    const util::LockRankScope rank(util::lock_ranks::kIndex, "index lock");
    index_.update(node, env);
  }

  /// Writer: mark `node` routable or not. A non-routable node — a cold
  /// spare not yet admitted — is invisible to the load queries until
  /// flipped back (DESIGN.md §14).
  void set_routable(std::size_t node, bool routable) {
    std::unique_lock lock(index_mutex_, std::try_to_lock);
    spin_then_block(lock);
    const util::LockRankScope rank(util::lock_ranks::kIndex, "index lock");
    index_.set_routable(node, routable);
  }

  /// Reader: `fn(const fleet::FleetIndex&)` under the shared lock; returns
  /// a copy of what `fn` returns, so nothing it returns may point into the
  /// index. `fn` must not take any other lock.
  template <typename Fn>
  auto read(Fn&& fn) const {
    std::shared_lock lock(index_mutex_, std::try_to_lock);
    spin_then_block(lock);
    const util::LockRankScope rank(util::lock_ranks::kIndex, "index lock");
    return std::forward<Fn>(fn)(index_);
  }

 private:
  /// Finish taking a lock constructed with std::try_to_lock: retry briefly
  /// before blocking. Every critical section here is a few hundred
  /// nanoseconds, while a blocked rwlock waiter pays a kernel sleep and
  /// wake-up; with blocking acquisition alone, two dispatch workers served
  /// ~30% fewer requests/s in bench/serve_throughput than with the spin.
  template <typename Lock>
  static void spin_then_block(Lock& lock) {
    for (int spin = 0; spin < 64 && !lock.owns_lock(); ++spin) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
      (void)lock.try_lock();
    }
    if (!lock.owns_lock()) lock.lock();
  }

  mutable std::shared_mutex index_mutex_;
  fleet::FleetIndex index_;
};

}  // namespace mlcr::serve
