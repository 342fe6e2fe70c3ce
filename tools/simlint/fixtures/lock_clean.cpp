// Clean lock-discipline fixture: the blessed acquisition patterns from
// SchedulerService and ShardedFleetIndex must produce zero violations.
#include <algorithm>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

class GoodService {
 public:
  // Ascending ranks: shard mutex (10), then inference mutex (20).
  void dispatch_one(std::size_t s) {
    std::lock_guard lock(*shard_mutexes_[s]);
    std::lock_guard inference_lock(inference_mutex_);
  }

  // The wave pattern: sort + dedup the shard list, accumulate guards in
  // ascending order, then take the inference mutex on top.
  void dispatch_wave(std::vector<std::size_t> shards) {
    std::sort(shards.begin(), shards.end());
    shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards.size());
    for (const std::size_t shard : shards)
      locks.emplace_back(*shard_mutexes_[shard]);
    std::lock_guard inference_lock(inference_mutex_);
  }

  // The index lock taken alone, as ShardedFleetIndex::read() does.
  void query() const { std::shared_lock lock(index_mutex_); }

  // Dispatch refreshes the index under the stripe mutex: ascending ranks.
  void refresh(std::size_t s) {
    std::lock_guard lock(*shard_mutexes_[s]);
    std::unique_lock index_lock(index_mutex_);
  }

  // Ascending literal indexes within the family are legal.
  void ascending_literals() {
    std::lock_guard low(*shard_mutexes_[0]);
    std::lock_guard high(*shard_mutexes_[1]);
  }

  // defer_lock acquires nothing, so no ordering fact is recorded.
  void deferred(std::mutex& m) {
    std::unique_lock lock(m, std::defer_lock);
  }

 private:
  std::vector<std::unique_ptr<std::mutex>> shard_mutexes_;
  mutable std::shared_mutex index_mutex_;
  std::mutex inference_mutex_;
};
