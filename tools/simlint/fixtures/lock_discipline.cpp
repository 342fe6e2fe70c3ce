// Lock-discipline fixture: each marked line must fire exactly its rule.
// Linted as src/serve/lock_discipline.cpp, but the lock rules are tree-wide;
// the shapes below mirror SchedulerService / ShardedFleetIndex locking.
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

class BadService {
 public:
  // Rank inversion: the inference mutex (rank 20) may only be taken after
  // the shard mutexes (rank 10) it coordinates with.
  void inference_then_shard(std::size_t s) {
    std::lock_guard inference_lock(inference_mutex_);
    std::lock_guard shard_lock(*shard_mutexes_[s]);  // VIOLATION lock-order
  }

  // Same mutex twice on one path self-deadlocks a non-recursive mutex.
  void same_shard_twice() {
    std::lock_guard first(*shard_mutexes_[0]);
    std::lock_guard again(*shard_mutexes_[0]);  // VIOLATION lock-double
  }

  // Indexed-family members must be taken in ascending index order.
  void descending_literals() {
    std::lock_guard high(*shard_mutexes_[1]);
    std::lock_guard low(*shard_mutexes_[0]);  // VIOLATION lock-order
  }

  // Accumulating family locks in a loop without sorting + deduplicating the
  // indexes first: two workers with interleaved shard lists deadlock.
  void unsorted_wave(const std::vector<std::size_t>& shards) {
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards.size());
    for (const std::size_t s : shards)
      locks.emplace_back(*shard_mutexes_[s]);  // VIOLATION lock-loop
  }

  // The index lock is a leaf: nothing may be acquired under it.
  void under_leaf() {
    std::shared_lock lock(index_mutex_);
    std::lock_guard inference_lock(inference_mutex_);  // VIOLATION lock-order
  }

  // Bare calls bypass RAII: an early return or exception leaks the lock.
  void bare_calls() {
    inference_mutex_.lock();    // VIOLATION bare-lock
    inference_mutex_.unlock();  // VIOLATION bare-lock
  }

 private:
  std::vector<std::unique_ptr<std::mutex>> shard_mutexes_;
  std::mutex inference_mutex_;
  std::shared_mutex index_mutex_;
};
