// Concurrency stress suite for the queue edges of the hot path: the
// ProposalQueue, the per-ClientIO-thread reply queues and the affinity
// executor's worker queues, all BoundedBlockingQueue:
//   * backpressure: the ProposalQueue NEVER drops under overload,
//   * pop_for timeouts racing a bursty producer,
//   * close-under-fire shutdown safety.
// Run under ThreadSanitizer via -DMCSMR_SANITIZE=thread (CI tsan job).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/queue.hpp"

namespace mcsmr {
namespace {

// Scale down when instrumented (TSan is ~10x slower).
#if defined(__SANITIZE_THREAD__)
constexpr int kScale = 1;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr int kScale = 1;
#else
constexpr int kScale = 4;
#endif
#else
constexpr int kScale = 4;
#endif

// The ProposalQueue contract: a bounded blocking edge must deliver every
// pushed batch, in order, under sustained overload — backpressure stalls
// the producer, it never drops (§V-E; drops are only ever counted at the
// SendQueue and leadership-change points). Table I's cap of 20 is reached
// and never overshot.
TEST(QueueStress, ProposalQueueNeverDropsUnderOverload) {
  BoundedBlockingQueue<Bytes> queue(20, "ProposalQueue");  // the real edge type

  const int items = 10000 * kScale;
  std::atomic<int> push_failures{0};
  std::atomic<std::size_t> max_size{0};
  const auto note_size = [&] {
    const std::size_t size = queue.size();
    if (size > max_size.load(std::memory_order_relaxed)) max_size.store(size);
  };
  std::thread batcher([&] {
    for (int i = 0; i < items; ++i) {
      Bytes batch(64);
      batch[0] = static_cast<std::uint8_t>(i & 0xFF);
      batch[1] = static_cast<std::uint8_t>((i >> 8) & 0xFF);
      batch[2] = static_cast<std::uint8_t>((i >> 16) & 0xFF);
      if (!queue.push(std::move(batch))) push_failures.fetch_add(1);
      note_size();
    }
  });

  int received = 0;
  while (received < items) {
    auto batch = queue.pop();
    ASSERT_TRUE(batch.has_value());
    const int value = static_cast<int>((*batch)[0]) | (static_cast<int>((*batch)[1]) << 8) |
                      (static_cast<int>((*batch)[2]) << 16);
    ASSERT_EQ(value, received) << "batch lost or reordered";
    ++received;
    note_size();
    // Stall periodically so the queue oscillates between full and empty.
    if (received % 4096 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  batcher.join();
  EXPECT_EQ(push_failures.load(), 0) << "blocking push dropped under overload";
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(max_size.load(), queue.capacity()) << "cap of 20 not reached or overshot";
}

// pop_for under racing producers: timeouts and deliveries must interleave
// without losing items.
TEST(QueueStress, PopForRacesWithBurstyProducer) {
  BoundedBlockingQueue<int> queue(8, "bursty");
  const int bursts = 50 * kScale;
  std::thread producer([&] {
    int next = 0;
    for (int b = 0; b < bursts; ++b) {
      for (int i = 0; i < 16; ++i) queue.push(next++);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    queue.close();
  });

  int expected = 0;
  for (;;) {
    auto v = queue.pop_for(1 * kMillis);
    if (v.has_value()) {
      ASSERT_EQ(*v, expected);
      ++expected;
    } else if (queue.closed() && queue.size() == 0) {
      // Drain anything that raced the close.
      while (auto tail = queue.pop()) {
        ASSERT_EQ(*tail, expected);
        ++expected;
      }
      break;
    }
  }
  producer.join();
  EXPECT_EQ(expected, bursts * 16) << "items lost across pop_for timeouts";
}

// Shutdown safety: closing while producers and consumers are mid-flight
// must not deadlock, crash, lose or duplicate items. close() and push()
// serialize on the queue's mutex, so a push either lands before the close
// (and the consumers' drain gets it) or fails: nothing is stranded.
TEST(QueueStress, CloseUnderFire) {
  for (int round = 0; round < 10; ++round) {
    BoundedBlockingQueue<std::uint64_t> queue(16, "close-fire");
    std::atomic<std::uint64_t> pushed_ok{0};
    std::atomic<std::uint64_t> popped_count{0};

    std::vector<std::thread> threads;
    for (int p = 0; p < 2; ++p) {
      threads.emplace_back([&, p] {
        for (std::uint64_t i = 0;; ++i) {
          if (!queue.push((static_cast<std::uint64_t>(p) << 32) | i)) return;
          pushed_ok.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (int c = 0; c < 2; ++c) {
      threads.emplace_back([&] {
        while (queue.pop().has_value()) popped_count.fetch_add(1, std::memory_order_relaxed);
      });
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    queue.close();
    for (auto& t : threads) t.join();

    EXPECT_FALSE(queue.try_pop().has_value()) << "consumers exited before the drain finished";
    EXPECT_EQ(popped_count.load(), pushed_ok.load()) << "an accepted push was stranded";
  }
}

}  // namespace
}  // namespace mcsmr
