// Fixture for the bare-lock rule: a mutex is taken through an RAII guard,
// never by calling .lock()/.unlock()/.try_lock() on it, so an early return
// or an exception cannot leak the lock. The receiver is recognised by name
// (ends in `mutex`/`mutex_`, or is `mtx`/`mtx_`). Lock order is the runtime
// validator's job (util::LockOrderValidator), not this rule's. Linted as
// src/serve/bare_lock.cpp; never compiled.
#include <memory>
#include <mutex>

class Service {
 public:
  void bare_calls() {
    inference_mutex_.lock();    // VIOLATION bare-lock
    inference_mutex_.unlock();  // VIOLATION bare-lock
  }

  bool bare_try(std::mutex* queue_mutex) {
    return queue_mutex->try_lock();  // VIOLATION bare-lock
  }

  void bare_short_name() {
    mtx_.lock();  // VIOLATION bare-lock
  }

  // RAII guards, including deferred and try-to-lock ones, are the contract.
  void guarded() {
    std::lock_guard lock(inference_mutex_);
    std::unique_lock deferred(mtx_, std::defer_lock);
  }

  // Receivers that are not named like a mutex, and mentions in comments
  // (inference_mutex_.lock()) or strings, are never flagged.
  std::shared_ptr<int> owner() { return weak_owner_.lock(); }
  const char* doc() const { return "inference_mutex_.lock()"; }

 private:
  std::mutex inference_mutex_;
  std::mutex mtx_;
  std::weak_ptr<int> weak_owner_;
};
