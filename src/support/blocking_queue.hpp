#pragma once

// Closable blocking MPMC queue.
//
// This is the message-passing primitive of the engine: worker mailboxes and
// the driver's result channel are BlockingQueues.  Design points, following
// the Core Guidelines concurrency rules:
//   * all state behind one mutex, condition_variable for blocking pops
//     (CP.42: don't wait without a condition);
//   * close() wakes all waiters and makes further pushes no-ops, so shutdown
//     never deadlocks (a worker blocked in pop() observes closed+empty);
//   * pop results are std::optional so "queue closed" is a value, not an
//     exception crossing a thread boundary.

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace asyncml::support {

template <typename T>
class BlockingQueue {
 public:
  /// `capacity == 0` means unbounded. Bounded queues block pushers when full
  /// (backpressure), which the engine uses to model finite network buffers.
  explicit BlockingQueue(std::size_t capacity = 0) : capacity_(capacity) {}

  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  /// Pushes an item; blocks while a bounded queue is full. Returns false if
  /// the queue is (or becomes) closed — the item is dropped in that case.
  bool push(T item) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [&] { return closed_ || !bounded_full_locked(); });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push attempt; returns false when full or closed.
  bool try_push(T item) {
    {
      std::lock_guard lock(mutex_);
      if (closed_ || bounded_full_locked()) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking pop; returns nullopt only when the queue is closed AND drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    return pop_front_locked(lock);
  }

  /// Pop with timeout; nullopt on timeout or on closed+drained.
  template <typename Rep, typename Period>
  std::optional<T> pop_for(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock lock(mutex_);
    if (!not_empty_.wait_for(lock, timeout,
                             [&] { return closed_ || !items_.empty(); })) {
      return std::nullopt;
    }
    return pop_front_locked(lock);
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::unique_lock lock(mutex_);
    if (items_.empty()) return std::nullopt;
    return pop_front_locked(lock);
  }

  /// Takes the entire queue contents in one swap under one lock — the batch
  /// consumer's primitive (the coordinator's collect drains every delivered
  /// TaskResult per wakeup instead of paying one mutex round-trip each).
  /// Returns an empty deque when the queue is empty.
  std::deque<T> drain() {
    std::deque<T> out;
    {
      std::lock_guard lock(mutex_);
      items_.swap(out);
    }
    if (!out.empty()) not_full_.notify_all();
    return out;
  }

  /// Blocking drain with timeout: waits until the queue is non-empty (or
  /// closed / timed out), then swaps everything out. Empty result means
  /// timeout or closed-and-drained.
  template <typename Rep, typename Period>
  std::deque<T> drain_for(std::chrono::duration<Rep, Period> timeout) {
    std::deque<T> out;
    {
      std::unique_lock lock(mutex_);
      if (!not_empty_.wait_for(lock, timeout,
                               [&] { return closed_ || !items_.empty(); })) {
        return out;
      }
      items_.swap(out);
    }
    if (!out.empty()) not_full_.notify_all();
    return out;
  }

  /// Closes the queue: pending items remain poppable, new pushes are refused,
  /// blocked poppers wake up once the queue drains.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  bool bounded_full_locked() const {
    return capacity_ != 0 && items_.size() >= capacity_;
  }

  std::optional<T> pop_front_locked(std::unique_lock<std::mutex>& lock) {
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace asyncml::support
