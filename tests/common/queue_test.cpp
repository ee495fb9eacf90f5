#include "common/queue.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <thread>

#include "common/rand.hpp"

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

TEST(MpmcRing, FifoAndPowerOfTwoCapacity) {
  MpmcRing<int> ring(3);
  EXPECT_EQ(ring.capacity(), 4u);  // rounded up to a power of two
  EXPECT_FALSE(ring.try_pop().has_value());
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_TRUE(ring.try_push(3));
  EXPECT_TRUE(ring.try_push(4));
  EXPECT_FALSE(ring.try_push(5));  // full at rounded capacity 4
  EXPECT_EQ(ring.try_pop().value(), 1);
  EXPECT_TRUE(ring.try_push(5));
  EXPECT_EQ(ring.try_pop().value(), 2);
  EXPECT_EQ(ring.try_pop().value(), 3);
  EXPECT_EQ(ring.try_pop().value(), 4);
  EXPECT_EQ(ring.try_pop().value(), 5);
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(MpmcRing, TwoThreadStress) {
  constexpr int kItems = 200000;
  MpmcRing<int> ring(1024);
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
  });
  int expected = 0;
  while (expected < kItems) {
    if (auto v = ring.try_pop()) {
      ASSERT_EQ(*v, expected);  // strict FIFO
      ++expected;
    }
  }
  producer.join();
}

TEST(MpmcRing, BasicFifo) {
  MpmcRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(9));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(ring.try_pop().value(), i);
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(MpmcRing, WrapAroundAtSmallCapacity) {
  // Capacity 2 (the minimum): indices wrap every two ops; exercise many
  // thousand wraps to catch masking bugs.
  MpmcRing<int> ring(2);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(ring.try_push(i));
    ASSERT_TRUE(ring.try_push(i + 100000));
    ASSERT_FALSE(ring.try_push(0));  // full
    ASSERT_EQ(ring.try_pop().value(), i);
    ASSERT_EQ(ring.try_pop().value(), i + 100000);
    ASSERT_FALSE(ring.try_pop().has_value());
  }
}

TEST(MpmcRing, FailedPushDoesNotConsumeItem) {
  MpmcRing<std::unique_ptr<int>> ring(2);
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(1)));
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(2)));
  auto third = std::make_unique<int>(3);
  ASSERT_FALSE(ring.try_push(third));
  ASSERT_NE(third, nullptr) << "failed push must leave the item intact";
  EXPECT_EQ(*third, 3);
  ring.try_pop();
  ASSERT_TRUE(ring.try_push(third));  // same object, retried after space
  ASSERT_EQ(third, nullptr);
}

TEST(MpmcRing, MultiThreadNoLoss) {
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 20000;
  MpmcRing<std::uint64_t> ring(256);
  std::atomic<std::uint64_t> sum{0};
  std::atomic<int> consumed{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        std::uint64_t v = static_cast<std::uint64_t>(p) * kPerProducer +
                          static_cast<std::uint64_t>(i) + 1;
        while (!ring.try_push(v)) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (consumed.load() < kProducers * kPerProducer) {
        if (auto v = ring.try_pop()) {
          sum.fetch_add(*v);
          consumed.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Sum of 1..(kProducers*kPerProducer) partitioned by producer.
  std::uint64_t expected = 0;
  for (std::uint64_t v = 1; v <= static_cast<std::uint64_t>(kProducers) * kPerProducer; ++v) {
    expected += v;
  }
  EXPECT_EQ(sum.load(), expected);
}

// --- PipelineQueue: both backends must satisfy the BoundedBlockingQueue
// contract (the pipeline edges swap backends via the queue_impl knob and
// rely on identical push/pop/close/backpressure semantics).

class PipelineQueueTest : public ::testing::TestWithParam<QueueImpl> {
 protected:
  template <typename T>
  PipelineQueue<T> make(std::size_t cap, const std::string& name = "q") {
    return PipelineQueue<T>(GetParam(), cap, name);
  }
};

TEST_P(PipelineQueueTest, FifoOrder) {
  auto queue = make<int>(16);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(queue.push(i));
  for (int i = 0; i < 10; ++i) {
    auto v = queue.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST_P(PipelineQueueTest, LogicalCapacityEnforced) {
  // Cap 3 is not a power of two: the ring backend must bound at 3, not at
  // its physical 4 slots.
  auto queue = make<int>(3);
  EXPECT_EQ(queue.capacity(), 3u);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_TRUE(queue.try_push(3));
  EXPECT_FALSE(queue.try_push(4));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.try_pop().value(), 1);
  EXPECT_TRUE(queue.try_push(4));
}

TEST_P(PipelineQueueTest, CloseDrainsThenEnds) {
  auto queue = make<int>(8);
  queue.push(1);
  queue.push(2);
  queue.close();
  EXPECT_FALSE(queue.push(3));
  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(queue.pop().value(), 1);
  EXPECT_EQ(queue.pop().value(), 2);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST_P(PipelineQueueTest, CloseWakesBlockedConsumer) {
  auto queue = make<int>(8);
  std::thread consumer([&] {
    auto v = queue.pop();
    EXPECT_FALSE(v.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  consumer.join();
}

TEST_P(PipelineQueueTest, CloseWakesBlockedProducer) {
  auto queue = make<int>(1);
  queue.push(1);
  std::thread producer([&] {
    EXPECT_FALSE(queue.push(2));  // blocks on full, then fails at close
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  producer.join();
}

TEST_P(PipelineQueueTest, PushForTimesOutWhenFull) {
  auto queue = make<int>(1);
  queue.push(1);
  const auto t0 = mono_ns();
  EXPECT_FALSE(queue.push_for(2, 20 * kMillis));
  EXPECT_GE(mono_ns() - t0, 15 * kMillis);
  EXPECT_EQ(queue.size(), 1u);
}

TEST_P(PipelineQueueTest, PushForSucceedsWhenSpaceAppears) {
  auto queue = make<int>(1);
  queue.push(1);
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(queue.pop().value(), 1);
  });
  EXPECT_TRUE(queue.push_for(2, 2 * kSeconds));
  consumer.join();
  EXPECT_EQ(queue.pop().value(), 2);
}

TEST_P(PipelineQueueTest, PopForTimesOut) {
  auto queue = make<int>(4);
  const auto t0 = mono_ns();
  auto v = queue.pop_for(20 * kMillis);
  EXPECT_FALSE(v.has_value());
  EXPECT_GE(mono_ns() - t0, 15 * kMillis);
}

TEST_P(PipelineQueueTest, PopForReturnsValueBeforeTimeout) {
  auto queue = make<int>(4);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.push(7);
  });
  auto v = queue.pop_for(2 * kSeconds);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  producer.join();
}

TEST_P(PipelineQueueTest, PopAllDrainsEverything) {
  auto queue = make<int>(16);
  for (int i = 0; i < 5; ++i) queue.push(i);
  std::vector<int> out;
  EXPECT_EQ(queue.pop_all(out), 5u);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(queue.size(), 0u);
}

TEST_P(PipelineQueueTest, BackpressureBlocksProducerUntilConsumed) {
  auto queue = make<int>(2);
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

TEST_P(PipelineQueueTest, MoveOnlyPayload) {
  auto queue = make<std::unique_ptr<int>>(4);
  queue.push(std::make_unique<int>(42));
  auto v = queue.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 42);
}

INSTANTIATE_TEST_SUITE_P(Backends, PipelineQueueTest,
                         ::testing::Values(QueueImpl::kMutex, QueueImpl::kRing),
                         [](const ::testing::TestParamInfo<QueueImpl>& param_info) {
                           return std::string(to_string(param_info.param));
                         });

}  // namespace
}  // namespace mcsmr
