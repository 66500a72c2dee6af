#pragma once

// Closable, unbounded blocking MPMC queue.
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
  BlockingQueue() = default;
  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  /// Pushes an item. Returns false if the queue is closed — the item is
  /// dropped in that case.
  bool push(T item) {
    {
      std::lock_guard lock(mutex_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking pop; returns nullopt only when the queue is closed AND drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    return pop_front_locked();
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::lock_guard lock(mutex_);
    return pop_front_locked();
  }

  /// Takes the entire queue contents in one swap under one lock — the batch
  /// consumer's primitive (the coordinator's collect drains every delivered
  /// TaskResult per wakeup instead of paying one mutex round-trip each).
  /// Returns an empty deque when the queue is empty.
  std::deque<T> drain() {
    std::deque<T> out;
    std::lock_guard lock(mutex_);
    items_.swap(out);
    return out;
  }

  /// Blocking drain with timeout: waits until the queue is non-empty (or
  /// closed / timed out), then swaps everything out. Empty result means
  /// timeout or closed-and-drained.
  template <typename Rep, typename Period>
  std::deque<T> drain_for(std::chrono::duration<Rep, Period> timeout) {
    std::deque<T> out;
    std::unique_lock lock(mutex_);
    if (not_empty_.wait_for(lock, timeout, [&] { return closed_ || !items_.empty(); })) {
      items_.swap(out);
    }
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
  std::optional<T> pop_front_locked() {
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace asyncml::support
