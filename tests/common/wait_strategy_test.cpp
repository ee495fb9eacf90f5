// Unit tests for Signal (common/queue.hpp), the blocking wait used by the
// threads that park on atomics rather than on a queue: no lost wakeups under
// a ping-pong hammer, wake-all, timeout behavior, a parked waiter burns ~no
// CPU, and the "waiting" attribution that keeps the Fig 8 per-thread
// breakdown honest on the waits built on it.
#include "common/queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "metrics/thread_stats.hpp"

namespace mcsmr {
namespace {

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// The hammer: two threads ping-pong a token through two Signals tens of
// thousands of times. One lost wakeup anywhere and the test hangs
// (gtest/ctest timeout kills it).
TEST(Signal, NoLostWakeupsPingPongHammer) {
#if defined(__SANITIZE_THREAD__)
  constexpr int kRounds = 20000;
#else
  constexpr int kRounds = 100000;
#endif
  Signal ping;
  Signal pong;
  std::atomic<int> token{0};  // even: ping's turn, odd: pong's turn

  std::thread other([&] {
    for (int i = 0; i < kRounds; ++i) {
      pong.await([&] { return token.load(std::memory_order_acquire) == 2 * i + 1; });
      token.store(2 * i + 2, std::memory_order_release);
      ping.notify();
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    token.store(2 * i + 1, std::memory_order_release);
    pong.notify();
    ping.await([&] { return token.load(std::memory_order_acquire) == 2 * i + 2; });
  }
  other.join();
  EXPECT_EQ(token.load(), 2 * kRounds);
}

// Many waiters, one notifier: every waiter must observe the condition.
TEST(Signal, NotifyWakesAllParkedWaiters) {
  Signal signal;
  std::atomic<bool> go{false};
  std::atomic<int> awake{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 8; ++i) {
    waiters.emplace_back([&] {
      signal.await([&] { return go.load(std::memory_order_acquire); });
      awake.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(awake.load(), 0);
  go.store(true, std::memory_order_release);
  signal.notify();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(awake.load(), 8);
}

TEST(Signal, AwaitForHonorsTimeout) {
  Signal signal;
  const std::uint64_t t0 = mono_ns();
  EXPECT_FALSE(signal.await_for([] { return false; }, 30 * kMillis));
  const std::uint64_t elapsed = mono_ns() - t0;
  EXPECT_GE(elapsed, 20 * kMillis);
  EXPECT_LT(elapsed, 5 * kSeconds);
}

TEST(Signal, AwaitForReturnsEarlyWhenNotified) {
  Signal signal;
  std::atomic<bool> flag{false};
  std::thread notifier([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    flag.store(true, std::memory_order_release);
    signal.notify();
  });
  const std::uint64_t t0 = mono_ns();
  EXPECT_TRUE(
      signal.await_for([&] { return flag.load(std::memory_order_acquire); }, 5 * kSeconds));
  EXPECT_LT(mono_ns() - t0, 2 * kSeconds);
  notifier.join();
}

// An idle replica must not burn a core: a waiter parks, it does not poll.
TEST(Signal, ParkedWaiterBurnsNoCpu) {
  Signal signal;
  constexpr std::uint64_t kParkNs = 300 * kMillis;
  std::uint64_t cpu_spent = 0;
  std::thread waiter([&] {
    const std::uint64_t cpu0 = thread_cpu_ns();
    signal.await_for([] { return false; }, kParkNs);
    cpu_spent = thread_cpu_ns() - cpu0;
  });
  waiter.join();
  // Parked ~300 ms of wall time; CPU burn must be a small fraction of it.
  EXPECT_LT(cpu_spent, kParkNs / 4) << "waiter spun instead of parking";
}

// Fig 8 plumbing: parked time must be charged to the registered thread's
// "waiting" state, exactly like a condvar wait on the queues.
TEST(Signal, ParkedTimeIsAttributedAsWaiting) {
  metrics::ThreadRegistry::instance().clear();
  Signal signal;
  metrics::NamedThread waiter("park-test", [&] {
    signal.await_for([] { return false; }, 100 * kMillis);
  });
  waiter.join();
  std::uint64_t waiting_ns = 0;
  for (const auto& snap : metrics::ThreadRegistry::instance().snapshot_all()) {
    if (snap.name == "park-test") waiting_ns = snap.waiting_ns;
  }
  metrics::ThreadRegistry::instance().clear();
  EXPECT_GE(waiting_ns, 50 * kMillis) << "parked interval not recorded as waiting";
}

}  // namespace
}  // namespace mcsmr
