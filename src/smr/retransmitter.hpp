// Retransmitter thread (§V-C4): guarantees protocol-critical messages are
// eventually delivered (needed even over TCP — frames die with broken
// connections and with full SendQueues).
//
// Design follows the paper:
//   * a deadline-ordered queue of pending retransmissions, owned and
//     consumed by a dedicated thread;
//   * schedule() (Protocol thread, on first send) hands the entry over
//     under a brief lock and wakes the thread only when it sleeps until a
//     later deadline — with a fixed timeout and a live entry already
//     armed, it never does;
//   * cancel() — executed for every message once its instance decides —
//     takes NO lock and does NOT wake the thread: it just sets an atomic
//     flag; the thread drops cancelled entries lazily, popping them off
//     its heap before it goes back to sleep.
// So while proposals decide within the timeout, the thread wakes about
// once per timeout period, not once per message. Each wake-up then drops
// a timeout's worth of cancelled entries (thousands under load); that
// sweep holds no lock, so it never stalls schedule().
// The key->entry index is touched only by the Protocol thread, so it
// needs no synchronization at all.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "metrics/thread_stats.hpp"
#include "paxos/messages.hpp"
#include "smr/replica_io.hpp"

namespace mcsmr::smr {

class Retransmitter {
 public:
  Retransmitter(const Config& config, PartitionIo replica_io);
  ~Retransmitter();

  void start();
  void stop();

  /// Protocol thread only: arm periodic re-broadcast of `message`. Wakes
  /// the thread only if it sleeps until a later deadline.
  void schedule(std::uint64_t key, paxos::Message message);

  /// Protocol thread only: lock-free cancel (atomic flag, no wake-up).
  void cancel(std::uint64_t key);

  /// Protocol thread only: cancel everything (view adoption).
  void cancel_all();

  /// Armed (not yet cancelled) entries; monitoring only.
  std::size_t armed() const { return armed_.load(std::memory_order_relaxed); }
  std::uint64_t resends() const { return resends_.load(std::memory_order_relaxed); }
  /// Times the thread woke from a wait (timeout or notify); monitoring only.
  std::uint64_t wakeups() const { return wakeups_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    std::atomic<bool> cancelled{false};
    paxos::Message message;
    std::uint64_t key = 0;
  };
  struct Pending {
    std::uint64_t deadline_ns;
    std::shared_ptr<Entry> entry;
    bool operator>(const Pending& other) const { return deadline_ns > other.deadline_ns; }
  };

  void run();

  // Owned copy, not a reference: a stored Config& tied this object's
  // lifetime to the constructor argument (the PR-6 dangling-Config bug
  // class); lint_invariants.py forbids storing the parameter by ref.
  const Config config_;
  PartitionIo replica_io_;

  // Protocol-thread-private index (single caller; no lock by design).
  std::unordered_map<std::uint64_t, std::shared_ptr<Entry>> by_key_;

  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  // lint:allow(raw-sync): timed sleep-with-early-wake of a periodic
  // thread; handing over an entry must never block the Protocol thread.
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Pending> incoming_;  ///< scheduled, not yet in the thread's heap
  /// Deadline the thread sleeps until; 0 while it is awake (it then checks
  /// incoming_ before sleeping, so schedule() need not wake it).
  std::uint64_t sleeping_until_ns_ = 0;
  bool stopping_ = false;
  bool started_ = false;

  std::atomic<std::size_t> armed_{0};
  std::atomic<std::uint64_t> resends_{0};
  std::atomic<std::uint64_t> wakeups_{0};

  metrics::NamedThread thread_;
};

}  // namespace mcsmr::smr
