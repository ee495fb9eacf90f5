#include "common/queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "common/clock.hpp"

namespace mcsmr {
namespace {

TEST(BoundedBlockingQueue, FifoOrder) {
  BoundedBlockingQueue<int> queue(16);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(queue.push(i));
  for (int i = 0; i < 10; ++i) {
    auto v = queue.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedBlockingQueue, TryPushRespectsCapacity) {
  BoundedBlockingQueue<int> queue(3);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_TRUE(queue.try_push(3));
  EXPECT_FALSE(queue.try_push(4));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.try_pop().value(), 1);
  EXPECT_TRUE(queue.try_push(4));
}

TEST(BoundedBlockingQueue, CloseDrainsThenEnds) {
  BoundedBlockingQueue<int> queue(8);
  queue.push(1);
  queue.push(2);
  queue.close();
  EXPECT_FALSE(queue.push(3));
  EXPECT_EQ(queue.pop().value(), 1);
  EXPECT_EQ(queue.pop().value(), 2);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(BoundedBlockingQueue, CloseWakesBlockedConsumer) {
  BoundedBlockingQueue<int> queue(8);
  std::thread consumer([&] {
    auto v = queue.pop();
    EXPECT_FALSE(v.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  consumer.join();
}

TEST(BoundedBlockingQueue, CloseWakesBlockedProducer) {
  BoundedBlockingQueue<int> queue(1);
  queue.push(1);
  std::thread producer([&] {
    EXPECT_FALSE(queue.push(2));  // blocks on full, then fails at close
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  producer.join();
}

TEST(BoundedBlockingQueue, PopForTimesOut) {
  BoundedBlockingQueue<int> queue(4);
  const auto t0 = mono_ns();
  auto v = queue.pop_for(20 * kMillis);
  EXPECT_FALSE(v.has_value());
  EXPECT_GE(mono_ns() - t0, 15 * kMillis);
}

TEST(BoundedBlockingQueue, PopAllDrainsEverything) {
  BoundedBlockingQueue<int> queue(16);
  for (int i = 0; i < 5; ++i) queue.push(i);
  std::vector<int> out;
  EXPECT_EQ(queue.pop_all(out), 5u);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedBlockingQueue, BackpressureBlocksProducerUntilConsumed) {
  BoundedBlockingQueue<int> queue(2);
  queue.push(1);
  queue.push(2);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    queue.push(3);
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(queue.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  queue.close();
}

TEST(BoundedBlockingQueue, MoveOnlyPayload) {
  BoundedBlockingQueue<std::unique_ptr<int>> queue(4);
  queue.push(std::make_unique<int>(42));
  auto v = queue.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 42);
}

// Property: N producers x M consumers — every pushed item is popped exactly
// once; per-producer order is preserved.
class QueueConcurrencyTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(QueueConcurrencyTest, NoLossNoDuplication) {
  const auto [producers, consumers] = GetParam();
  constexpr int kPerProducer = 2000;
  BoundedBlockingQueue<std::uint64_t> queue(64);

  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        // Encode producer id in the high bits, sequence in the low bits.
        ASSERT_TRUE(
            queue.push((static_cast<std::uint64_t>(p) << 32) | static_cast<std::uint32_t>(i)));
      }
    });
  }

  std::mutex out_mu;
  std::vector<std::uint64_t> popped;
  std::vector<std::thread> consumer_threads;
  for (int c = 0; c < consumers; ++c) {
    consumer_threads.emplace_back([&] {
      std::vector<std::uint64_t> local;
      while (auto v = queue.pop()) local.push_back(*v);
      std::lock_guard<std::mutex> guard(out_mu);
      popped.insert(popped.end(), local.begin(), local.end());
    });
  }

  for (auto& t : threads) t.join();
  queue.close();
  for (auto& t : consumer_threads) t.join();

  ASSERT_EQ(popped.size(), static_cast<std::size_t>(producers) * kPerProducer);
  std::set<std::uint64_t> unique(popped.begin(), popped.end());
  EXPECT_EQ(unique.size(), popped.size()) << "duplicated items";
  for (int p = 0; p < producers; ++p) {
    for (int i = 0; i < kPerProducer; ++i) {
      EXPECT_TRUE(unique.count((static_cast<std::uint64_t>(p) << 32) |
                               static_cast<std::uint32_t>(i)))
          << "lost item p=" << p << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, QueueConcurrencyTest,
                         ::testing::Values(std::make_tuple(1, 1), std::make_tuple(4, 1),
                                           std::make_tuple(1, 4), std::make_tuple(4, 4)));

// With a single consumer, per-producer FIFO order must hold.
TEST(BoundedBlockingQueue, PerProducerOrderSingleConsumer) {
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 5000;
  BoundedBlockingQueue<std::uint64_t> queue(32);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        queue.push((static_cast<std::uint64_t>(p) << 32) | static_cast<std::uint32_t>(i));
      }
    });
  }

  std::vector<std::uint32_t> last_seen(kProducers, 0);
  std::vector<bool> seen_any(kProducers, false);
  int total = 0;
  while (total < kProducers * kPerProducer) {
    auto v = queue.pop();
    ASSERT_TRUE(v.has_value());
    const auto producer = static_cast<std::size_t>(*v >> 32);
    const auto seq = static_cast<std::uint32_t>(*v);
    if (seen_any[producer]) {
      EXPECT_GT(seq, last_seen[producer]) << "per-producer order violated";
    }
    last_seen[producer] = seq;
    seen_any[producer] = true;
    ++total;
  }
  for (auto& t : producers) t.join();
}

// --- Timed edges: the reply path's bounded push and the Protocol thread's
// timed pop.

TEST(BoundedBlockingQueue, PushForTimesOutWhenFull) {
  BoundedBlockingQueue<int> queue(1);
  queue.push(1);
  const auto t0 = mono_ns();
  EXPECT_FALSE(queue.push_for(2, 20 * kMillis));
  EXPECT_GE(mono_ns() - t0, 15 * kMillis);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(BoundedBlockingQueue, PushForSucceedsWhenSpaceAppears) {
  BoundedBlockingQueue<int> queue(1);
  queue.push(1);
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(queue.pop().value(), 1);
  });
  EXPECT_TRUE(queue.push_for(2, 2 * kSeconds));
  consumer.join();
  EXPECT_EQ(queue.pop().value(), 2);
}

TEST(BoundedBlockingQueue, PopForReturnsValueBeforeTimeout) {
  BoundedBlockingQueue<int> queue(4);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.push(7);
  });
  auto v = queue.pop_for(2 * kSeconds);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  producer.join();
}

}  // namespace
}  // namespace mcsmr
