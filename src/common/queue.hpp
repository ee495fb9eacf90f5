// Bounded queues — the connective tissue of the threading architecture.
//
// The paper's modules communicate almost exclusively through bounded
// message queues (Fig 3: RequestQueue, ProposalQueue, DispatcherQueue,
// DecisionQueue, SendQueues, per-ClientIO reply queues). Bounding them is
// what implements flow control by backpressure (§V-E): a slow stage fills
// its input queue, which stalls the stage before it, all the way back to
// the TCP receive path.
//
// BoundedBlockingQueue is the one queue of every edge: mutex + two
// condition variables, instrumented so that
//   * contended lock acquisitions count as "blocked" time, and
//   * empty/full condition waits count as "waiting" time
// in the owning thread's ThreadStats — exactly the JVM states the paper
// reports in Figs 1b/8/14.
//
// Signal is the same mutex + condvar for the hand-offs that are not
// queues but a condition over state owned elsewhere: the segment
// storage's flush thread and sync() callers, and the affinity executor's
// rendezvous and quiesce points. Its waits are attributed the same way.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "metrics/thread_stats.hpp"

namespace mcsmr {

/// Multi-producer multi-consumer bounded FIFO with blocking push/pop,
/// close semantics, and per-thread blocked/waiting instrumentation.
///
/// Close semantics: after close(), push/try_push return false; pop drains
/// remaining items and then returns nullopt. This gives clean shutdown of
/// pipeline stages without sentinel values.
template <typename T>
class BoundedBlockingQueue {
 public:
  explicit BoundedBlockingQueue(std::size_t capacity, std::string name = "queue")
      : capacity_(capacity == 0 ? 1 : capacity), name_(std::move(name)) {}

  BoundedBlockingQueue(const BoundedBlockingQueue&) = delete;
  BoundedBlockingQueue& operator=(const BoundedBlockingQueue&) = delete;

  /// Blocking push. Returns false (dropping `item`) if the queue is closed.
  bool push(T item) {
    std::unique_lock<metrics::InstrumentedMutex> lock(mu_);
    if (items_.size() >= capacity_ && !closed_) {
      metrics::WaitingTimer timer;
      not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    size_.store(items_.size(), std::memory_order_relaxed);
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push. Returns false if full or closed.
  bool try_push(T item) {
    {
      std::unique_lock<metrics::InstrumentedMutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      size_.store(items_.size(), std::memory_order_relaxed);
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking push with timeout. Returns false (dropping `item`) on
  /// timeout or close — the caller decides whether the drop is counted.
  bool push_for(T item, std::uint64_t timeout_ns) {
    std::unique_lock<metrics::InstrumentedMutex> lock(mu_);
    if (items_.size() >= capacity_ && !closed_) {
      metrics::WaitingTimer timer;
      not_full_.wait_for(lock, std::chrono::nanoseconds(timeout_ns),
                         [&] { return items_.size() < capacity_ || closed_; });
    }
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    size_.store(items_.size(), std::memory_order_relaxed);
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocking pop. Returns nullopt only when the queue is closed and empty.
  std::optional<T> pop() {
    std::unique_lock<metrics::InstrumentedMutex> lock(mu_);
    if (items_.empty() && !closed_) {
      metrics::WaitingTimer timer;
      not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    }
    return pop_locked(lock);
  }

  /// Blocking pop with timeout. Returns nullopt on timeout or closed+empty.
  std::optional<T> pop_for(std::uint64_t timeout_ns) {
    std::unique_lock<metrics::InstrumentedMutex> lock(mu_);
    if (items_.empty() && !closed_) {
      metrics::WaitingTimer timer;
      not_empty_.wait_for(lock, std::chrono::nanoseconds(timeout_ns),
                          [&] { return !items_.empty() || closed_; });
    }
    if (items_.empty()) return std::nullopt;
    return pop_locked(lock);
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::unique_lock<metrics::InstrumentedMutex> lock(mu_);
    if (items_.empty()) return std::nullopt;
    return pop_locked(lock);
  }

  /// Pop everything currently queued (blocking until at least one item is
  /// available or the queue closes). Used by batch-oriented consumers
  /// (e.g. the ServiceManager draining decided batches).
  std::size_t pop_all(std::vector<T>& out) {
    std::unique_lock<metrics::InstrumentedMutex> lock(mu_);
    if (items_.empty() && !closed_) {
      metrics::WaitingTimer timer;
      not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    }
    const std::size_t count = items_.size();
    for (auto& item : items_) out.push_back(std::move(item));
    items_.clear();
    size_.store(0, std::memory_order_relaxed);
    lock.unlock();
    if (count > 0) not_full_.notify_all();
    return count;
  }

  /// Close the queue: wakes all waiters; producers fail, consumers drain.
  void close() {
    {
      std::unique_lock<metrics::InstrumentedMutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::unique_lock<metrics::InstrumentedMutex> lock(
        const_cast<metrics::InstrumentedMutex&>(mu_));
    return closed_;
  }

  /// Approximate size; wait-free (read by the Table I queue sampler).
  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  std::size_t capacity() const { return capacity_; }
  const std::string& name() const { return name_; }

 private:
  std::optional<T> pop_locked(std::unique_lock<metrics::InstrumentedMutex>& lock) {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    size_.store(items_.size(), std::memory_order_relaxed);
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  metrics::InstrumentedMutex mu_;
  std::condition_variable_any not_empty_;
  std::condition_variable_any not_full_;
  std::deque<T> items_;
  const std::size_t capacity_;
  bool closed_ = false;
  std::atomic<std::size_t> size_{0};
  std::string name_;
};

/// Block until a condition over other state (atomics, or data under its
/// owner's lock) holds. The waiter checks the condition under mu_, and
/// notify() takes mu_ before waking, so a change made before notify()
/// either is seen by the check or finds the waiter already parked: no
/// wake-up is lost. Spurious notifies are harmless.
class Signal {
 public:
  /// Block until cond() is true. cond runs under mu_, so it must not call
  /// back into this Signal.
  template <typename Cond>
  void await(Cond cond) {
    std::unique_lock<metrics::InstrumentedMutex> lock(mu_);
    if (cond()) return;
    metrics::WaitingTimer timer;
    cv_.wait(lock, cond);
  }

  /// Block until cond() is true or `timeout_ns` elapses; returns cond().
  template <typename Cond>
  bool await_for(Cond cond, std::uint64_t timeout_ns) {
    std::unique_lock<metrics::InstrumentedMutex> lock(mu_);
    if (cond()) return true;
    metrics::WaitingTimer timer;
    return cv_.wait_for(lock, std::chrono::nanoseconds(timeout_ns), cond);
  }

  /// Wake every waiter to re-check its condition. Call after the change.
  void notify() {
    { std::lock_guard<metrics::InstrumentedMutex> lock(mu_); }
    cv_.notify_all();
  }

 private:
  metrics::InstrumentedMutex mu_;
  std::condition_variable_any cv_;
};

}  // namespace mcsmr
