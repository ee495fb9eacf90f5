// Per-thread state accounting: busy / blocked / waiting / other.
//
// This reproduces the measurement methodology of the paper (§VI): the
// original uses the JVM's ThreadMXBean to attribute each thread's run time
// to four states. We do the same natively:
//
//   busy    — CPU time actually executed (CLOCK_THREAD_CPUTIME_ID)
//   blocked — wall time spent acquiring contended locks (instrumented
//             mutexes; see BlockedTimer)
//   waiting — wall time parked on a condition variable waiting for work or
//             for queue space (see WaitingTimer)
//   other   — the remainder of wall time: sleeping, blocked in syscalls
//             (socket I/O), or runnable-but-descheduled
//
// Threads opt in by registering through ThreadRegistry (NamedThread does
// this automatically). All counters are atomics written only by the owning
// thread and read by the sampler/report code, so recording is wait-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"

namespace mcsmr::metrics {

/// Point-in-time view of one thread's accumulated state times (ns), as
/// deltas since the registry epoch (see ThreadRegistry::reset_epoch).
struct ThreadStateSnapshot {
  std::string name;
  std::uint64_t busy_ns = 0;
  std::uint64_t blocked_ns = 0;
  std::uint64_t waiting_ns = 0;
  std::uint64_t other_ns = 0;
  std::uint64_t wall_ns = 0;
  bool alive = true;

  double busy_frac() const { return frac(busy_ns); }
  double blocked_frac() const { return frac(blocked_ns); }
  double waiting_frac() const { return frac(waiting_ns); }
  double other_frac() const { return frac(other_ns); }

 private:
  double frac(std::uint64_t v) const {
    return wall_ns == 0 ? 0.0 : static_cast<double>(v) / static_cast<double>(wall_ns);
  }
};

/// Per-thread accounting record. Owned by the registry (shared_ptr) so
/// snapshots of exited threads remain valid.
class ThreadStats {
 public:
  explicit ThreadStats(std::string name);

  const std::string& name() const { return name_; }

  /// Owning thread only: record a completed blocked interval.
  void add_blocked(std::uint64_t ns) { blocked_ns_.fetch_add(ns, std::memory_order_relaxed); }
  /// Owning thread only: record a completed wait-for-work interval.
  void add_waiting(std::uint64_t ns) { waiting_ns_.fetch_add(ns, std::memory_order_relaxed); }

  /// Owning thread only: called at thread exit to pin the final CPU time
  /// (the thread CPU clock of a dead thread cannot be queried).
  void finalize();

  /// Any thread: snapshot deltas since the given epoch values.
  ThreadStateSnapshot snapshot(std::uint64_t epoch_wall_ns) const;

  /// Owning thread only (via registry reset): mark the measurement epoch.
  void mark_epoch();

  std::uint64_t cpu_now_ns() const;

 private:
  std::string name_;
  clockid_t cpu_clock_{};
  bool has_cpu_clock_ = false;

  std::atomic<std::uint64_t> blocked_ns_{0};
  std::atomic<std::uint64_t> waiting_ns_{0};
  std::atomic<std::uint64_t> final_cpu_ns_{0};
  std::atomic<std::uint64_t> final_wall_ns_{0};
  std::atomic<bool> finalized_{false};

  // Epoch bases (set by mark_epoch, read by snapshot).
  std::atomic<std::uint64_t> epoch_cpu_ns_{0};
  std::atomic<std::uint64_t> epoch_blocked_ns_{0};
  std::atomic<std::uint64_t> epoch_waiting_ns_{0};
  std::atomic<std::uint64_t> epoch_wall_ns_{0};
};

/// Process-global registry of instrumented threads.
class ThreadRegistry {
 public:
  static ThreadRegistry& instance();

  /// Register the calling thread under `name`. Sets the thread-local
  /// current() pointer. Re-registering replaces the thread-local binding.
  std::shared_ptr<ThreadStats> register_current(const std::string& name);

  /// Remove the calling thread's binding (stats record stays in registry
  /// until clear()). Called automatically by NamedThread.
  void deregister_current();

  /// The calling thread's stats, or nullptr if not registered. Wait-free.
  static ThreadStats* current();

  /// Snapshot all registered threads (alive and finalized).
  std::vector<ThreadStateSnapshot> snapshot_all() const;

  /// Start a new measurement epoch: subsequent snapshots report deltas
  /// from this instant. Used to exclude warm-up (paper ignores first 10%).
  void reset_epoch();

  /// Drop all records (between experiments). Threads that are still alive
  /// keep their thread-local stats objects alive via shared_ptr.
  void clear();

  /// Sum of blocked time across all threads since epoch, as a fraction of
  /// the given wall duration — the paper's "Total blocked time" metric
  /// (Figs 5b/5d, 7b/7d, 13b), where 100% == one core's worth of run time.
  double total_blocked_frac(std::uint64_t wall_ns) const;

 private:
  ThreadRegistry() = default;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ThreadStats>> threads_;
  std::atomic<std::uint64_t> epoch_wall_ns_{mono_ns()};
};

/// RAII: times a blocked (lock-acquisition) interval into the calling
/// thread's stats. No-op for unregistered threads.
class BlockedTimer {
 public:
  BlockedTimer() : stats_(ThreadRegistry::current()), start_(stats_ ? mono_ns() : 0) {}
  ~BlockedTimer() {
    if (stats_ != nullptr) stats_->add_blocked(mono_ns() - start_);
  }
  BlockedTimer(const BlockedTimer&) = delete;
  BlockedTimer& operator=(const BlockedTimer&) = delete;

 private:
  ThreadStats* stats_;
  std::uint64_t start_;
};

/// RAII: times a waiting (condition-variable) interval into the calling
/// thread's stats. No-op for unregistered threads.
class WaitingTimer {
 public:
  WaitingTimer() : stats_(ThreadRegistry::current()), start_(stats_ ? mono_ns() : 0) {}
  ~WaitingTimer() {
    if (stats_ != nullptr) stats_->add_waiting(mono_ns() - start_);
  }
  WaitingTimer(const WaitingTimer&) = delete;
  WaitingTimer& operator=(const WaitingTimer&) = delete;

 private:
  ThreadStats* stats_;
  std::uint64_t start_;
};

/// std::mutex wrapper that attributes contended acquisitions to the
/// calling thread's "blocked" state. The uncontended fast path is a single
/// try_lock. Satisfies the Lockable named requirement, so it composes with
/// std::unique_lock / std::scoped_lock / std::condition_variable_any.
class InstrumentedMutex {
 public:
  void lock() {
    if (mu_.try_lock()) return;
    BlockedTimer timer;
    mu_.lock();
  }
  bool try_lock() { return mu_.try_lock(); }
  void unlock() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// The OS thread name for `name`, within Linux's 15-character limit so
/// per-thread /proc accounting (scripts/thread_cpu.py) can tell threads
/// apart. Long module names are abbreviated ("r0/ReplicaIORcv-2" ->
/// "r0/IORcv-2"); anything still too long keeps its "r<id>/" prefix and
/// "-<index>" suffix and loses the end of the module name.
std::string os_thread_name(const std::string& name);

/// std::thread wrapper that registers the thread with the global registry
/// under a fixed name (also set as the OS thread name, see
/// os_thread_name), finalizes stats at exit, and joins on destruction
/// (CppCoreGuidelines CP.25/CP.26: joining threads, never detach).
class NamedThread {
 public:
  NamedThread() = default;

  template <typename Fn>
  NamedThread(std::string name, Fn&& fn) {
    thread_ = std::thread(
        [name = std::move(name), fn = std::forward<Fn>(fn)]() mutable {
          set_os_thread_name(name);
          auto stats = ThreadRegistry::instance().register_current(name);
          fn();
          stats->finalize();
          ThreadRegistry::instance().deregister_current();
        });
  }

  NamedThread(NamedThread&&) = default;
  NamedThread& operator=(NamedThread&& other) {
    join();
    thread_ = std::move(other.thread_);
    return *this;
  }
  NamedThread(const NamedThread&) = delete;
  NamedThread& operator=(const NamedThread&) = delete;

  ~NamedThread() { join(); }

  void join() {
    if (thread_.joinable()) thread_.join();
  }
  bool joinable() const { return thread_.joinable(); }

 private:
  static void set_os_thread_name(const std::string& name);

  std::thread thread_;
};

/// Render a snapshot table like the paper's per-thread figures (8, 14):
/// one row per thread with busy/blocked/waiting/other percentages.
std::string format_thread_table(const std::vector<ThreadStateSnapshot>& snaps);

}  // namespace mcsmr::metrics
