// Bounded queues — the connective tissue of the threading architecture.
//
// The paper's modules communicate almost exclusively through bounded
// message queues (Fig 3: RequestQueue, ProposalQueue, DispatcherQueue,
// DecisionQueue, SendQueues, per-ClientIO reply queues). Bounding them is
// what implements flow control by backpressure (§V-E): a slow stage fills
// its input queue, which stalls the stage before it, all the way back to
// the TCP receive path.
//
// BoundedBlockingQueue is the default: mutex + two condition variables,
// instrumented so that
//   * contended lock acquisitions count as "blocked" time, and
//   * empty/full condition waits count as "waiting" time
// in the owning thread's ThreadStats — exactly the JVM states the paper
// reports in Figs 1b/8/14.
//
// MpmcRing is the one lock-free alternative. PipelineQueue composes it
// with the spin-then-park WaitStrategy (common/wait_strategy.hpp) into a
// drop-in blocking queue, so the hot Fig 3 edges (Batcher -> Protocol
// ProposalQueue, ServiceManager -> ClientIO reply queues, the affinity
// executor's worker queues) can run lock-free while keeping the exact
// backpressure and close semantics of BoundedBlockingQueue — whatever
// number of threads produce into them. The `queue_impl` config knob
// selects the backend per deployment; bench_ablation_queues A/Bs the two
// on the real edge traffic.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/wait_strategy.hpp"
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

/// Bounded multi-producer multi-consumer lock-free queue (Dmitry Vyukov's
/// sequence-numbered ring). Non-blocking; PipelineQueue adds the blocking
/// and close semantics on top.
template <typename T>
class MpmcRing {
 public:
  explicit MpmcRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    cells_ = std::make_unique<Cell[]>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i <= mask_; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  /// Non-consuming push: `item` is moved from only on success (after this
  /// producer has won its slot), so a blocking caller can retry.
  bool try_push(T& item) {
    Cell* cell;
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const std::intptr_t diff =
          static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) break;
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->data = std::move(item);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }
  bool try_push(T&& item) { return try_push(item); }

  std::optional<T> try_pop() {
    Cell* cell;
    std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const std::intptr_t diff =
          static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1);
      if (diff == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) break;
      } else if (diff < 0) {
        return std::nullopt;  // empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    T item = std::move(cell->data);
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return item;
  }

  /// Approximate occupancy (racy between the two position loads). The
  /// enqueue position is loaded first, so pushes and pops racing the read
  /// can only make it low: in the other order a stale dequeue position
  /// pairs with a fresher enqueue position, and an observer reads more
  /// items than the ring ever held at once.
  std::size_t size() const {
    const std::size_t enq = enqueue_pos_.load(std::memory_order_acquire);
    const std::size_t deq = dequeue_pos_.load(std::memory_order_acquire);
    return enq >= deq ? enq - deq : 0;
  }
  /// Physical slot count (requested capacity rounded up to a power of 2).
  std::size_t capacity() const { return mask_ + 1; }

 private:
  struct Cell {
    std::atomic<std::size_t> seq;
    T data;
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
};

namespace detail {

/// Runtime-polymorphic core of PipelineQueue. One virtual hop per op; the
/// dispatch cost is noise next to either backend's synchronization.
template <typename T>
class PipelineQueueImpl {
 public:
  virtual ~PipelineQueueImpl() = default;
  virtual bool push(T item) = 0;
  virtual bool push_for(T item, std::uint64_t timeout_ns) = 0;
  virtual bool try_push(T item) = 0;
  virtual std::optional<T> pop() = 0;
  virtual std::optional<T> pop_for(std::uint64_t timeout_ns) = 0;
  virtual std::optional<T> try_pop() = 0;
  virtual std::size_t pop_all(std::vector<T>& out) = 0;
  virtual void close() = 0;
  virtual bool closed() const = 0;
  virtual std::size_t size() const = 0;
};

template <typename T>
class MutexPipelineQueue final : public PipelineQueueImpl<T> {
 public:
  MutexPipelineQueue(std::size_t capacity, std::string name)
      : queue_(capacity, std::move(name)) {}

  bool push(T item) override { return queue_.push(std::move(item)); }
  bool push_for(T item, std::uint64_t timeout_ns) override {
    return queue_.push_for(std::move(item), timeout_ns);
  }
  bool try_push(T item) override { return queue_.try_push(std::move(item)); }
  std::optional<T> pop() override { return queue_.pop(); }
  std::optional<T> pop_for(std::uint64_t timeout_ns) override {
    return queue_.pop_for(timeout_ns);
  }
  std::optional<T> try_pop() override { return queue_.try_pop(); }
  std::size_t pop_all(std::vector<T>& out) override { return queue_.pop_all(out); }
  void close() override { queue_.close(); }
  bool closed() const override { return queue_.closed(); }
  std::size_t size() const override { return queue_.size(); }

 private:
  BoundedBlockingQueue<T> queue_;
};

/// Lock-free ring + two spin-then-park wait strategies (not-empty for
/// consumers, not-full for producers). The logical capacity is enforced on
/// top of the ring's power-of-two physical size so flow-control bounds
/// (e.g. the paper's ProposalQueue cap of 20, Table I) hold exactly. A
/// lone producer's size() read is conservative (its own enqueue position
/// is exact, the consumer's may be stale), so on a single-producer edge
/// the bound is strict; concurrent producers can overshoot it by at most
/// (producers - 1) transiently.
///
/// Close semantics: push fails after close is observed; pop drains
/// whatever was pushed happens-before close() and then returns nullopt
/// (the double-check in pop() after observing closed_ makes those items
/// visible through the acquire load). One deliberate divergence from
/// BoundedBlockingQueue, which serializes push/close under a mutex: a
/// push racing close() can return true after the consumer has already
/// drained and exited, stranding that item. This only happens in the
/// shutdown window, where the pipeline discards in-flight work anyway
/// (clients retry; see ring_stress_test CloseUnderFire for the bound).
template <typename T>
class RingPipelineQueue final : public PipelineQueueImpl<T> {
 public:
  explicit RingPipelineQueue(std::size_t capacity) : ring_(capacity), capacity_(capacity) {}

  bool push(T item) override {
    for (;;) {
      if (closed_.load(std::memory_order_acquire)) return false;
      if (ring_.size() < capacity_ && ring_.try_push(item)) {
        not_empty_.notify();
        return true;
      }
      not_full_.await([&] {
        return closed_.load(std::memory_order_acquire) || ring_.size() < capacity_;
      });
    }
  }

  bool push_for(T item, std::uint64_t timeout_ns) override {
    const std::uint64_t deadline = mono_ns() + timeout_ns;
    for (;;) {
      if (closed_.load(std::memory_order_acquire)) return false;
      if (ring_.size() < capacity_ && ring_.try_push(item)) {
        not_empty_.notify();
        return true;
      }
      const std::uint64_t now = mono_ns();
      if (now >= deadline) return false;
      not_full_.await_for(
          [&] {
            return closed_.load(std::memory_order_acquire) || ring_.size() < capacity_;
          },
          deadline - now);
    }
  }

  bool try_push(T item) override {
    if (closed_.load(std::memory_order_acquire)) return false;
    if (ring_.size() >= capacity_ || !ring_.try_push(item)) return false;
    not_empty_.notify();
    return true;
  }

  std::optional<T> pop() override {
    for (;;) {
      if (auto item = ring_.try_pop()) {
        not_full_.notify();
        return item;
      }
      if (closed_.load(std::memory_order_acquire)) return drain_one();
      not_empty_.await([&] {
        return ring_.size() != 0 || closed_.load(std::memory_order_acquire);
      });
    }
  }

  std::optional<T> pop_for(std::uint64_t timeout_ns) override {
    const std::uint64_t deadline = mono_ns() + timeout_ns;
    for (;;) {
      if (auto item = ring_.try_pop()) {
        not_full_.notify();
        return item;
      }
      if (closed_.load(std::memory_order_acquire)) return drain_one();
      const std::uint64_t now = mono_ns();
      if (now >= deadline) return std::nullopt;
      not_empty_.await_for(
          [&] { return ring_.size() != 0 || closed_.load(std::memory_order_acquire); },
          deadline - now);
    }
  }

  std::optional<T> try_pop() override {
    auto item = ring_.try_pop();
    if (item.has_value()) not_full_.notify();
    return item;
  }

  std::size_t pop_all(std::vector<T>& out) override {
    auto first = pop();
    if (!first.has_value()) return 0;
    out.push_back(std::move(*first));
    std::size_t count = 1;
    while (auto item = ring_.try_pop()) {
      out.push_back(std::move(*item));
      ++count;
    }
    not_full_.notify();
    return count;
  }

  void close() override {
    closed_.store(true, std::memory_order_release);
    not_empty_.notify();
    not_full_.notify();
  }

  bool closed() const override { return closed_.load(std::memory_order_acquire); }
  std::size_t size() const override { return ring_.size(); }

 private:
  /// After closed_ was observed: one more pop attempt so items pushed
  /// happens-before close() are never stranded.
  std::optional<T> drain_one() {
    auto item = ring_.try_pop();
    if (item.has_value()) not_full_.notify();
    return item;
  }

  MpmcRing<T> ring_;
  const std::size_t capacity_;
  std::atomic<bool> closed_{false};
  WaitStrategy not_empty_;
  WaitStrategy not_full_;
};

}  // namespace detail

/// Blocking bounded FIFO with a runtime-selected backend: the instrumented
/// mutex queue or a lock-free ring with spin-then-park waiting. Drop-in
/// for BoundedBlockingQueue on the Fig 3 edges — same push/pop/close/
/// backpressure semantics — so the `queue_impl` config knob can A/B the
/// two implementations on the live pipeline (bench_ablation_queues,
/// BENCH_fig08 per-thread breakdown).
template <typename T>
class PipelineQueue {
 public:
  PipelineQueue(QueueImpl impl, std::size_t capacity, std::string name)
      : capacity_(capacity == 0 ? 1 : capacity), name_(std::move(name)) {
    if (impl == QueueImpl::kMutex) {
      impl_ = std::make_unique<detail::MutexPipelineQueue<T>>(capacity_, name_);
    } else {
      impl_ = std::make_unique<detail::RingPipelineQueue<T>>(capacity_);
    }
  }

  PipelineQueue(const PipelineQueue&) = delete;
  PipelineQueue& operator=(const PipelineQueue&) = delete;

  /// Blocking push (backpressure). Returns false only when closed.
  bool push(T item) { return impl_->push(std::move(item)); }
  /// Blocking push with timeout: backpressure with a progress guarantee.
  /// Returns false (dropping `item`) on timeout or close. This is the
  /// reply-path variant — a producer that must not join a backpressure
  /// cycle waits briefly, then drops-and-counts (the client retry is
  /// served from the reply cache).
  bool push_for(T item, std::uint64_t timeout_ns) {
    return impl_->push_for(std::move(item), timeout_ns);
  }
  /// Non-blocking push. Returns false if full or closed.
  bool try_push(T item) { return impl_->try_push(std::move(item)); }
  /// Blocking pop. Returns nullopt only when closed and drained.
  std::optional<T> pop() { return impl_->pop(); }
  /// Blocking pop with timeout. Returns nullopt on timeout or closed+empty.
  std::optional<T> pop_for(std::uint64_t timeout_ns) { return impl_->pop_for(timeout_ns); }
  /// Non-blocking pop.
  std::optional<T> try_pop() { return impl_->try_pop(); }
  /// Pop everything queued (blocking until one item or close).
  std::size_t pop_all(std::vector<T>& out) { return impl_->pop_all(out); }
  /// Close: producers fail, consumers drain then get nullopt.
  void close() { impl_->close(); }

  bool closed() const { return impl_->closed(); }
  std::size_t size() const { return impl_->size(); }
  std::size_t capacity() const { return capacity_; }
  const std::string& name() const { return name_; }

 private:
  std::size_t capacity_;
  std::string name_;
  std::unique_ptr<detail::PipelineQueueImpl<T>> impl_;
};

}  // namespace mcsmr
