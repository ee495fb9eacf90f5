// Spin-then-park waiting on a condition over atomics (§V-E).
//
// Some hand-offs are not queues but a predicate over atomic counters: the
// segment storage's flush thread waiting for appends and its sync()
// callers waiting for the durable LSN (flush_wake_/durable_wake_), and
// the affinity executor's rendezvous and quiesce points (sync_). They
// need to block without a mutex on the fast path, so an idle thread does
// not burn a core polling and a waiter is woken as soon as the counter
// moves. This file supplies that:
//
//   EventCount — Vyukov-style eventcount: the portable futex. Waiters
//     announce themselves (prepare_wait), re-check their condition, then
//     park on a condvar keyed by an epoch (commit_wait). Notifiers bump
//     the epoch and only touch the mutex when somebody is actually
//     parked, so a notify with nobody parked is one relaxed load.
//
//   WaitStrategy — the policy on top: spin for a bounded budget (the
//     hand-off usually completes within a few hundred cycles when both
//     stages are hot), then park via the EventCount. Parked intervals
//     are charged to the owning thread's "waiting" state, so the per-
//     thread breakdowns of Figs 1b/8/14 see these waits exactly as they
//     see the queues' condition waits.
//
// Lost-wakeup freedom: prepare_wait's seq_cst RMW on waiters_ and the
// notifier's seq_cst fence before reading waiters_ form the standard
// store-buffering resolution (both sides seq_cst): either the waiter's
// condition re-check observes the notifier's write, or the notifier
// observes the waiter and takes the slow path. The epoch check under the
// mutex then closes the window between the re-check and the park.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/clock.hpp"
#include "metrics/thread_stats.hpp"

namespace mcsmr {

/// Pause the CPU inside a spin loop (PAUSE/YIELD; a plain barrier
/// elsewhere). Keeps the spinning hyperthread from starving its sibling.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Vyukov eventcount: condvar parking with a lock-free "anyone waiting?"
/// fast path for notifiers.
///
/// Waiter protocol:
///   auto key = ec.prepare_wait();
///   if (condition()) { ec.cancel_wait(); }      // raced: work arrived
///   else             { ec.commit_wait(key); }   // park until notified
///
/// Notifier protocol (after making the condition true):
///   ec.notify();
class EventCount {
 public:
  std::uint64_t prepare_wait() {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    return epoch_.load(std::memory_order_seq_cst);
  }

  void cancel_wait() { waiters_.fetch_sub(1, std::memory_order_release); }

  /// Park until some notify() after the matching prepare_wait().
  void commit_wait(std::uint64_t key) {
    std::unique_lock<std::mutex> lock(mu_);
    while (epoch_.load(std::memory_order_relaxed) == key) cv_.wait(lock);
    lock.unlock();
    waiters_.fetch_sub(1, std::memory_order_release);
  }

  /// Park with a deadline; returns false on timeout (the wait is consumed
  /// either way).
  bool commit_wait_for(std::uint64_t key, std::uint64_t timeout_ns) {
    const std::uint64_t deadline = mono_ns() + timeout_ns;
    bool notified = true;
    std::unique_lock<std::mutex> lock(mu_);
    while (epoch_.load(std::memory_order_relaxed) == key) {
      const std::uint64_t now = mono_ns();
      if (now >= deadline) {
        notified = false;
        break;
      }
      cv_.wait_for(lock, std::chrono::nanoseconds(deadline - now));
    }
    lock.unlock();
    waiters_.fetch_sub(1, std::memory_order_release);
    return notified;
  }

  /// Wake every parked waiter. Cheap when nobody is parked: a fence plus
  /// one load, no mutex, no syscall.
  void notify() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) == 0) return;
    {
      // The epoch bump must be mutex-protected so a waiter between its
      // epoch check and cv_.wait cannot miss it.
      std::lock_guard<std::mutex> lock(mu_);
      epoch_.fetch_add(1, std::memory_order_relaxed);
    }
    cv_.notify_all();
  }

  /// Approximate count of threads between prepare_wait and wake (tests).
  std::uint32_t waiters() const { return waiters_.load(std::memory_order_acquire); }

 private:
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint32_t> waiters_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

/// Spin-then-park: the wait policy for one condition over atomics (e.g.
/// "the durable LSN reached x", "every worker arrived").
class WaitStrategy {
 public:
  /// `spin_budget`: condition re-checks (with cpu_relax) before parking.
  /// Clamped to 0 on a single-CPU host: the peer that would make the
  /// condition true cannot run while we spin, so spinning only delays it.
  explicit WaitStrategy(std::uint32_t spin_budget = kDefaultSpinBudget)
      : spin_budget_(std::thread::hardware_concurrency() > 1 ? spin_budget : 0) {}

  /// Block until cond() is true. cond must be safe to call concurrently
  /// with notifiers (it reads atomics).
  template <typename Cond>
  void await(Cond&& cond) {
    for (std::uint32_t i = 0; i < spin_budget_; ++i) {
      if (cond()) return;
      cpu_relax();
    }
    for (;;) {
      const std::uint64_t key = ec_.prepare_wait();
      if (cond()) {
        ec_.cancel_wait();
        return;
      }
      metrics::WaitingTimer timer;  // parked time = "waiting" in Figs 8/14
      ec_.commit_wait(key);
      if (cond()) return;
    }
  }

  /// Block until cond() is true or `timeout_ns` elapses; returns cond().
  template <typename Cond>
  bool await_for(Cond&& cond, std::uint64_t timeout_ns) {
    const std::uint64_t deadline = mono_ns() + timeout_ns;
    for (std::uint32_t i = 0; i < spin_budget_; ++i) {
      if (cond()) return true;
      cpu_relax();
    }
    for (;;) {
      const std::uint64_t key = ec_.prepare_wait();
      if (cond()) {
        ec_.cancel_wait();
        return true;
      }
      const std::uint64_t now = mono_ns();
      if (now >= deadline) {
        ec_.cancel_wait();
        return cond();
      }
      metrics::WaitingTimer timer;
      if (!ec_.commit_wait_for(key, deadline - now)) return cond();
      if (cond()) return true;
    }
  }

  /// Wake all awaiters (they re-check their condition).
  void notify() { ec_.notify(); }

  std::uint32_t spin_budget() const { return spin_budget_; }
  std::uint32_t parked() const { return ec_.waiters(); }

  static constexpr std::uint32_t kDefaultSpinBudget = 256;

 private:
  const std::uint32_t spin_budget_;
  EventCount ec_;
};

}  // namespace mcsmr
