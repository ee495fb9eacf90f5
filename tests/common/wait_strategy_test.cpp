// Unit tests for the spin-then-park wait layer (common/wait_strategy.hpp):
// park/unpark wake correctness, no lost wakeups under a ping-pong hammer,
// bounded spin (a parked waiter burns ~no CPU), timeout behavior, and the
// "waiting" attribution that keeps the Fig 8 per-thread breakdown honest
// on the waits built on it.
#include "common/wait_strategy.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <ctime>
#include <thread>

namespace mcsmr {
namespace {

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

TEST(EventCount, NotifyWithoutWaitersIsANoOp) {
  EventCount ec;
  for (int i = 0; i < 1000; ++i) ec.notify();
  EXPECT_EQ(ec.waiters(), 0u);
}

TEST(EventCount, CancelledWaitLeavesNoWaiter) {
  EventCount ec;
  const auto key = ec.prepare_wait();
  EXPECT_EQ(ec.waiters(), 1u);
  ec.cancel_wait();
  EXPECT_EQ(ec.waiters(), 0u);
  (void)key;
}

TEST(EventCount, ParkedWaiterIsWokenByNotify) {
  EventCount ec;
  std::atomic<bool> ready{false};
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    const auto key = ec.prepare_wait();
    if (!ready.load(std::memory_order_seq_cst)) {
      ec.commit_wait(key);
    } else {
      ec.cancel_wait();
    }
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(woke.load());
  ready.store(true, std::memory_order_seq_cst);
  ec.notify();
  waiter.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(ec.waiters(), 0u);
}

TEST(EventCount, NotifyBetweenPrepareAndCommitIsNotLost) {
  // The classic lost-wakeup window: the notifier fires after prepare_wait
  // read its epoch but before commit_wait parks. The epoch bump must make
  // commit_wait return immediately.
  EventCount ec;
  for (int i = 0; i < 1000; ++i) {
    const auto key = ec.prepare_wait();
    // Notify from another thread while we are "between" the two calls.
    std::thread notifier([&] { ec.notify(); });
    notifier.join();
    // Must not hang: the notify above targeted our registered wait.
    ec.commit_wait(key);
  }
  EXPECT_EQ(ec.waiters(), 0u);
}

TEST(EventCount, CommitWaitForTimesOut) {
  EventCount ec;
  const auto key = ec.prepare_wait();
  const std::uint64_t t0 = mono_ns();
  EXPECT_FALSE(ec.commit_wait_for(key, 30 * kMillis));
  EXPECT_GE(mono_ns() - t0, 20 * kMillis);
  EXPECT_EQ(ec.waiters(), 0u);
}

// The hammer: two threads ping-pong a token through two WaitStrategy
// instances tens of thousands of times. One lost wakeup anywhere and the
// test hangs (gtest/ctest timeout kills it).
TEST(WaitStrategy, NoLostWakeupsPingPongHammer) {
#if defined(__SANITIZE_THREAD__)
  constexpr int kRounds = 20000;
#else
  constexpr int kRounds = 100000;
#endif
  WaitStrategy ping(4);  // tiny spin budget: force the park path often
  WaitStrategy pong(4);
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
TEST(WaitStrategy, NotifyWakesAllParkedWaiters) {
  WaitStrategy ws(0);  // park immediately
  std::atomic<bool> go{false};
  std::atomic<int> awake{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 8; ++i) {
    waiters.emplace_back([&] {
      ws.await([&] { return go.load(std::memory_order_acquire); });
      awake.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(awake.load(), 0);
  go.store(true, std::memory_order_release);
  ws.notify();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(awake.load(), 8);
}

TEST(WaitStrategy, AwaitForHonorsTimeout) {
  WaitStrategy ws(16);
  const std::uint64_t t0 = mono_ns();
  EXPECT_FALSE(ws.await_for([] { return false; }, 30 * kMillis));
  const std::uint64_t elapsed = mono_ns() - t0;
  EXPECT_GE(elapsed, 20 * kMillis);
  EXPECT_LT(elapsed, 5 * kSeconds);
}

TEST(WaitStrategy, AwaitForReturnsEarlyWhenNotified) {
  WaitStrategy ws(16);
  std::atomic<bool> flag{false};
  std::thread notifier([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    flag.store(true, std::memory_order_release);
    ws.notify();
  });
  const std::uint64_t t0 = mono_ns();
  EXPECT_TRUE(ws.await_for([&] { return flag.load(std::memory_order_acquire); }, 5 * kSeconds));
  EXPECT_LT(mono_ns() - t0, 2 * kSeconds);
  notifier.join();
}

// Bounded spin budget: a parked waiter must consume (almost) no CPU — the
// whole point of spin-THEN-park is that an idle replica does not burn a
// core the way a pure spin loop would.
TEST(WaitStrategy, ParkedWaiterBurnsNoCpu) {
  WaitStrategy ws(WaitStrategy::kDefaultSpinBudget);
  constexpr std::uint64_t kParkNs = 300 * kMillis;
  std::uint64_t cpu_spent = 0;
  std::thread waiter([&] {
    const std::uint64_t cpu0 = thread_cpu_ns();
    ws.await_for([] { return false; }, kParkNs);
    cpu_spent = thread_cpu_ns() - cpu0;
  });
  waiter.join();
  // Parked ~300 ms of wall time; CPU burn must be a small fraction of it.
  EXPECT_LT(cpu_spent, kParkNs / 4) << "waiter spun instead of parking";
}

TEST(WaitStrategy, WaiterActuallyParksAfterSpinBudget) {
  WaitStrategy ws(32);
  std::atomic<bool> done{false};
  std::thread waiter([&] { ws.await([&] { return done.load(std::memory_order_acquire); }); });
  // Give the waiter time to exhaust its spin budget and park.
  const std::uint64_t deadline = mono_ns() + 2 * kSeconds;
  while (ws.parked() == 0 && mono_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ws.parked(), 1u) << "waiter never reached the park path";
  done.store(true, std::memory_order_release);
  ws.notify();
  waiter.join();
  EXPECT_EQ(ws.parked(), 0u);
}

// Fig 8 plumbing: parked time must be charged to the registered thread's
// "waiting" state, exactly like a condvar wait on the mutex queues.
TEST(WaitStrategy, ParkedTimeIsAttributedAsWaiting) {
  metrics::ThreadRegistry::instance().clear();
  WaitStrategy ws(8);
  metrics::NamedThread waiter("park-test", [&] {
    ws.await_for([] { return false; }, 100 * kMillis);
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
