// Concurrency stress suite for the lock-free ring and the ring-backed
// PipelineQueue — the proof obligations of the lock-free hot path
// (ProposalQueue, the reply path and the affinity worker queues run on
// exactly these types):
//   * multi-producer/consumer sequence checks (per-producer FIFO),
//   * wrap-around at small capacities under contention,
//   * full/empty boundary races,
//   * backpressure: a blocking ring queue NEVER drops under overload,
//   * close-under-fire shutdown safety.
// Run under ThreadSanitizer via -DMCSMR_SANITIZE=thread (CI tsan job).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>

#include "common/bytes.hpp"
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

TEST(MpmcRingStress, OneToOneTinyCapacityFullEmptyRace) {
  // Capacity 2: the ring is almost always either full or empty, so every
  // operation sits on the wrap-around boundary.
  constexpr int kItems = 20000 * kScale;
  MpmcRing<int> ring(2);
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
  });
  for (int expected = 0; expected < kItems;) {
    if (auto v = ring.try_pop()) {
      ASSERT_EQ(*v, expected);  // strict FIFO across every wrap
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(MpmcRingStress, TinyCapacityFullEmptyRace) {
  constexpr int kProducers = 2, kConsumers = 2;
  const int per_producer = 5000 * kScale;
  MpmcRing<std::uint64_t> ring(4);
  std::atomic<int> consumed{0};
  std::atomic<std::uint64_t> sum{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < per_producer; ++i) {
        std::uint64_t v =
            static_cast<std::uint64_t>(p) * static_cast<std::uint64_t>(per_producer) +
            static_cast<std::uint64_t>(i) + 1;
        while (!ring.try_push(v)) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (consumed.load(std::memory_order_relaxed) < kProducers * per_producer) {
        if (auto v = ring.try_pop()) {
          sum.fetch_add(*v, std::memory_order_relaxed);
          consumed.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  const std::uint64_t total = static_cast<std::uint64_t>(kProducers) *
                              static_cast<std::uint64_t>(per_producer);
  EXPECT_EQ(sum.load(), total * (total + 1) / 2) << "items lost or duplicated";
}

// size() is read by outside observers (the queue sampler, the
// FlowControlBoundsQueues checks) while both ends race; it may read low
// but never more items than the ring can hold.
TEST(MpmcRingStress, ObservedSizeNeverExceedsCapacity) {
  const int items = 50000 * kScale;
  MpmcRing<int> ring(2);
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (int i = 0; i < items; ++i) {
      while (!ring.try_push(i)) {
      }
    }
  });
  std::thread consumer([&] {
    for (int i = 0; i < items;) i += ring.try_pop().has_value() ? 1 : 0;
    done.store(true);
  });
  std::size_t max_seen = 0;
  while (!done.load()) max_seen = std::max(max_seen, ring.size());
  producer.join();
  consumer.join();
  EXPECT_LE(max_seen, ring.capacity());
}

// Per-producer order must survive arbitrary producer/consumer interleaving
// (the ring is a FIFO per producer even though global order is free).
void check_per_producer_sequence(std::size_t capacity) {
  constexpr int kProducers = 4, kConsumers = 4;
  const int per_producer = 5000 * kScale;
  MpmcRing<std::uint64_t> ring(capacity);
  std::atomic<int> consumed{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < per_producer; ++i) {
        std::uint64_t v = (static_cast<std::uint64_t>(p) << 32) | static_cast<std::uint32_t>(i);
        while (!ring.try_push(v)) std::this_thread::yield();
      }
    });
  }

  std::mutex out_mu;
  std::vector<std::vector<std::uint64_t>> per_consumer(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::uint64_t> local;
      while (consumed.load(std::memory_order_relaxed) < kProducers * per_producer) {
        if (auto v = ring.try_pop()) {
          local.push_back(*v);
          consumed.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
      std::lock_guard<std::mutex> guard(out_mu);
      per_consumer[static_cast<std::size_t>(c)] = std::move(local);
    });
  }
  for (auto& t : threads) t.join();

  // Within one consumer's stream, each producer's sequence is increasing
  // (a consumer can never see producer p's item k after item k+1).
  std::size_t total = 0;
  std::set<std::uint64_t> seen;
  for (const auto& stream : per_consumer) {
    std::vector<std::int64_t> last(kProducers, -1);
    for (const std::uint64_t v : stream) {
      const auto producer = static_cast<std::size_t>(v >> 32);
      const auto seq = static_cast<std::int64_t>(static_cast<std::uint32_t>(v));
      ASSERT_GT(seq, last[producer]) << "per-producer order violated within a consumer";
      last[producer] = seq;
      ASSERT_TRUE(seen.insert(v).second) << "duplicated item";
    }
    total += stream.size();
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kProducers) * static_cast<std::size_t>(per_producer));
}

TEST(MpmcRingStress, PerProducerSequencePreserved) { check_per_producer_sequence(64); }

// At capacity 4 every operation races the full/empty boundary.
TEST(MpmcRingStress, TinyCapacityPerProducerSequencePreserved) { check_per_producer_sequence(4); }

// --- PipelineQueue (ring backends) under pipeline-shaped load ------------

// The ProposalQueue contract: a bounded blocking edge must deliver every
// pushed batch, in order, under sustained overload — backpressure stalls
// the producer, it never drops (§V-E; drops are only ever counted at the
// SendQueue and leadership-change points). With its one producer the
// ring holds Table I's cap of 20 strictly, although it has 32 slots.
TEST(RingQueueStress, ProposalQueueNeverDropsUnderOverload) {
  using ProposalQueue = PipelineQueue<Bytes>;  // the real edge type
  ProposalQueue queue(QueueImpl::kRing, 20, "ProposalQueue");

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

// Blocking MPMC pipeline queue: N producers x M consumers, no loss, no
// duplication.
TEST(RingQueueStress, MpmcPipelineNoLossNoDuplication) {
  constexpr int kProducers = 4, kConsumers = 4;
  const int per_producer = 5000 * kScale;
  PipelineQueue<std::uint64_t> queue(QueueImpl::kRing, 64, "stress");

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < per_producer; ++i) {
        ASSERT_TRUE(queue.push((static_cast<std::uint64_t>(p) << 32) |
                               static_cast<std::uint32_t>(i)));
      }
    });
  }

  std::mutex out_mu;
  std::vector<std::uint64_t> popped;
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::vector<std::uint64_t> local;
      while (auto v = queue.pop()) local.push_back(*v);
      std::lock_guard<std::mutex> guard(out_mu);
      popped.insert(popped.end(), local.begin(), local.end());
    });
  }

  for (auto& t : producers) t.join();
  queue.close();
  for (auto& t : consumers) t.join();

  ASSERT_EQ(popped.size(), static_cast<std::size_t>(kProducers) *
                               static_cast<std::size_t>(per_producer));
  std::set<std::uint64_t> unique(popped.begin(), popped.end());
  EXPECT_EQ(unique.size(), popped.size()) << "duplicated items";
}

// pop_for under racing producers: timeouts and deliveries must interleave
// without losing items.
TEST(RingQueueStress, PopForRacesWithBurstyProducer) {
  PipelineQueue<int> queue(QueueImpl::kRing, 8, "bursty");
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
// must not deadlock, crash, or duplicate items.
TEST(RingQueueStress, CloseUnderFire) {
  for (int round = 0; round < 10; ++round) {
    PipelineQueue<std::uint64_t> queue(QueueImpl::kRing, 16, "close-fire");
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

    // Every popped item was pushed successfully; only pushes racing the
    // close can be stranded, and those are bounded by the queue capacity
    // (+1 per producer for the multi-producer transient overshoot).
    EXPECT_LE(popped_count.load(), pushed_ok.load());
    EXPECT_GE(popped_count.load() + queue.capacity() + 2, pushed_ok.load());
  }
}

}  // namespace
}  // namespace mcsmr
