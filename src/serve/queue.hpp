// Bounded MPMC ingestion queue for the scheduler service. Producers
// try_push and are told immediately when the queue is full (the service
// rejects the request); consumers drain in batches
// so one wake-up amortizes over up to B requests.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace mlcr::serve {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    MLCR_CHECK_MSG(capacity_ > 0, "a queue needs room for at least one item");
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Enqueue `value`; false when the queue is full or closed (the value is
  /// dropped — callers count the rejection).
  [[nodiscard]] bool try_push(T value) {
    {
      std::lock_guard lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(value));
    }
    cv_.notify_one();
    return true;
  }

  /// Block until at least one item is available (or the queue is closed),
  /// then move up to `max_items` into `out` (appended). Returns the number
  /// moved; 0 means closed-and-empty — the consumer's shutdown signal.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max_items) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    return drain_locked(out, max_items);
  }

  /// Non-blocking drain for single-threaded pumping (tests, replay).
  std::size_t drain_nowait(std::vector<T>& out, std::size_t max_items) {
    std::lock_guard lock(mutex_);
    return drain_locked(out, max_items);
  }

  /// Close the queue: further try_push fails, consumers drain what remains
  /// and then see pop_batch return 0.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

 private:
  std::size_t drain_locked(std::vector<T>& out, std::size_t max_items) {
    std::size_t moved = 0;
    while (moved < max_items && !items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
      ++moved;
    }
    return moved;
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace mlcr::serve
