#include "net/simnet.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "common/clock.hpp"

namespace mcsmr::net {
namespace {

SimNetParams fast_params() {
  SimNetParams params;
  params.one_way_ns = 10'000;  // 10 us
  params.node_pps = 0;         // unlimited unless a test says otherwise
  params.node_bandwidth_bps = 0;
  return params;
}

TEST(SimNet, DeliversMessage) {
  SimNetwork net(fast_params());
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  ASSERT_TRUE(net.send(a, b, 0, Bytes{1, 2, 3}));
  auto msg = net.recv_for(b, 0, kSeconds);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->from, a);
  EXPECT_EQ(msg->payload, (Bytes{1, 2, 3}));
}

TEST(SimNet, ChannelsAreIsolated) {
  SimNetwork net(fast_params());
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.send(a, b, 7, Bytes{7});
  net.send(a, b, 9, Bytes{9});
  auto on9 = net.recv_for(b, 9, kSeconds);
  ASSERT_TRUE(on9.has_value());
  EXPECT_EQ(on9->payload, Bytes{9});
  auto on7 = net.recv_for(b, 7, kSeconds);
  ASSERT_TRUE(on7.has_value());
  EXPECT_EQ(on7->payload, Bytes{7});
}

TEST(SimNet, FifoPerLinkWithoutJitter) {
  SimNetwork net(fast_params());
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  for (std::uint8_t i = 0; i < 100; ++i) net.send(a, b, 0, Bytes{i});
  for (std::uint8_t i = 0; i < 100; ++i) {
    auto msg = net.recv_for(b, 0, kSeconds);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->payload[0], i);
  }
}

// Several threads of one node sending on one link (as ReplicaIo's inline
// sends do from Protocol, FailureDetector and Retransmitter): each
// thread's messages still arrive in the order it sent them.
TEST(SimNet, FifoPerSenderThreadOnSharedLink) {
  SimNetParams params = fast_params();
  params.node_pps = 2'000'000;  // NIC reservations queue up behind each other
  SimNetwork net(params);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  constexpr int kThreads = 3, kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        net.send(a, b, 0, Bytes{static_cast<std::uint8_t>(t), static_cast<std::uint8_t>(i),
                                static_cast<std::uint8_t>(i >> 8)});
      }
    });
  }
  std::vector<int> next(kThreads, 0);
  for (int n = 0; n < kThreads * kPerThread; ++n) {
    auto msg = net.recv_for(b, 0, 5 * kSeconds);
    ASSERT_TRUE(msg.has_value());
    const int t = msg->payload[0];
    EXPECT_EQ(msg->payload[1] | (msg->payload[2] << 8), next[static_cast<std::size_t>(t)]++)
        << "thread " << t;
  }
  for (auto& thread : threads) thread.join();
}

TEST(SimNet, RecvTimesOut) {
  SimNetwork net(fast_params());
  auto a = net.add_node("a");
  (void)a;
  const auto t0 = mono_ns();
  auto msg = net.recv_for(a, 0, 30 * kMillis);
  EXPECT_FALSE(msg.has_value());
  EXPECT_GE(mono_ns() - t0, 25 * kMillis);
}

TEST(SimNet, CloseInboxWakesReceiver) {
  SimNetwork net(fast_params());
  auto a = net.add_node("a");
  std::thread receiver([&] { EXPECT_FALSE(net.recv(a, 0).has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  net.close_inbox(a, 0);
  receiver.join();
}

TEST(SimNet, DropFaultLosesEverything) {
  SimNetwork net(fast_params());
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  FaultPlan drop_all;
  drop_all.drop_prob = 1.0;
  net.set_fault(a, b, drop_all);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(net.send(a, b, 0, Bytes{1}));
  EXPECT_FALSE(net.recv_for(b, 0, 50 * kMillis).has_value());
  // Reverse direction unaffected.
  net.send(b, a, 0, Bytes{2});
  EXPECT_TRUE(net.recv_for(a, 0, kSeconds).has_value());
}

TEST(SimNet, PartitionIsSymmetricAndHealable) {
  SimNetwork net(fast_params());
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.set_partition(a, b, true);
  net.send(a, b, 0, Bytes{1});
  net.send(b, a, 0, Bytes{1});
  EXPECT_FALSE(net.recv_for(b, 0, 30 * kMillis).has_value());
  EXPECT_FALSE(net.recv_for(a, 0, 30 * kMillis).has_value());
  net.set_partition(a, b, false);
  net.send(a, b, 0, Bytes{2});
  EXPECT_TRUE(net.recv_for(b, 0, kSeconds).has_value());
}

TEST(SimNet, DuplicationDeliversTwice) {
  SimNetwork net(fast_params());
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  FaultPlan dup;
  dup.dup_prob = 1.0;
  net.set_fault(a, b, dup);
  net.send(a, b, 0, Bytes{5});
  EXPECT_TRUE(net.recv_for(b, 0, kSeconds).has_value());
  EXPECT_TRUE(net.recv_for(b, 0, kSeconds).has_value());
}

/// A sink that records each payload it is handed and the thread that
/// handed it over.
class Collector {
 public:
  SimNetwork::Sink sink() {
    return [this](SimMessage&& message) {
      std::lock_guard<std::mutex> guard(mu_);
      payloads_.push_back(std::move(message.payload));
      threads_.push_back(std::this_thread::get_id());
      cv_.notify_all();
    };
  }
  /// The payloads so far, once at least `count` have arrived (or after 5 s).
  std::vector<Bytes> wait_for(std::size_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::seconds(5), [&] { return payloads_.size() >= count; });
    return payloads_;
  }
  std::vector<std::thread::id> threads() {
    std::lock_guard<std::mutex> guard(mu_);
    return threads_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Bytes> payloads_;
  std::vector<std::thread::id> threads_;
};

// A message that reached the inbox before the receiver attached (a
// Prepare that beats the replica's start) is not left there: it goes to
// the sink ahead of everything delivered later.
TEST(SimNet, QueuedMessagesReachSinkFirstInOrder) {
  Collector collector;  // outlives the network's delivery thread
  SimNetwork net(fast_params());
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  for (std::uint8_t i = 0; i < 50; ++i) net.send(a, b, 0, Bytes{i});
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // all in b's inbox
  net.set_sink(b, 0, collector.sink());
  // The queued ones were handed over by set_sink itself, on this thread.
  const auto drained = collector.threads();
  ASSERT_EQ(drained.size(), 50u);
  for (const auto& thread : drained) EXPECT_EQ(thread, std::this_thread::get_id());
  for (std::uint8_t i = 50; i < 100; ++i) net.send(a, b, 0, Bytes{i});
  const auto payloads = collector.wait_for(100);
  ASSERT_EQ(payloads.size(), 100u);
  for (std::uint8_t i = 0; i < 100; ++i) EXPECT_EQ(payloads[i], Bytes{i});
  EXPECT_NE(collector.threads().back(), std::this_thread::get_id());
  EXPECT_FALSE(net.recv_for(b, 0, 10 * kMillis).has_value());
}

TEST(SimNet, FifoPerSenderThreadThroughSink) {
  Collector collector;  // outlives the network's delivery thread
  SimNetParams params = fast_params();
  params.node_pps = 2'000'000;  // NIC reservations queue up behind each other
  SimNetwork net(params);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.set_sink(b, 0, collector.sink());
  constexpr int kThreads = 3, kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        net.send(a, b, 0, Bytes{static_cast<std::uint8_t>(t), static_cast<std::uint8_t>(i),
                                static_cast<std::uint8_t>(i >> 8)});
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto payloads = collector.wait_for(kThreads * kPerThread);
  ASSERT_EQ(payloads.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::vector<int> next(kThreads, 0);
  for (const auto& payload : payloads) {
    const int t = payload[0];
    EXPECT_EQ(payload[1] | (payload[2] << 8), next[static_cast<std::size_t>(t)]++)
        << "thread " << t;
  }
}

// Detaching waits out a sink call in progress: when set_sink(nullptr)
// returns, the old sink is not running and is never called again, so its
// owner may free what it captured. Later messages land in the inbox.
TEST(SimNet, DetachWaitsForRunningSinkAndRestoresInbox) {
  std::atomic<bool> running{false};
  std::atomic<int> calls{0};
  SimNetwork net(fast_params());
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.set_sink(b, 0, [&](SimMessage&&) {
    running.store(true);
    calls.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    running.store(false);
  });
  net.send(a, b, 0, Bytes{1});
  const std::uint64_t deadline = mono_ns() + 5 * kSeconds;
  while (!running.load() && mono_ns() < deadline) std::this_thread::yield();
  ASSERT_TRUE(running.load()) << "the sink was never called";
  net.set_sink(b, 0, nullptr);
  EXPECT_FALSE(running.load()) << "set_sink returned while the old sink was running";
  EXPECT_EQ(calls.load(), 1);
  for (std::uint8_t i = 2; i < 7; ++i) net.send(a, b, 0, Bytes{i});
  for (std::uint8_t i = 2; i < 7; ++i) {
    auto msg = net.recv_for(b, 0, kSeconds);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->payload, Bytes{i});
  }
  EXPECT_EQ(calls.load(), 1);
}

TEST(SimNet, FaultDroppedMessageNeverReachesSink) {
  Collector collector;  // outlives the network's delivery thread
  SimNetwork net(fast_params());
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.set_sink(b, 0, collector.sink());
  FaultPlan drop_all;
  drop_all.drop_prob = 1.0;
  net.set_fault(a, b, drop_all);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(net.send(a, b, 0, Bytes{1}));
  net.set_fault(a, b, FaultPlan{});
  net.send(a, b, 0, Bytes{2});
  EXPECT_EQ(collector.wait_for(1), std::vector<Bytes>{Bytes{2}});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(collector.wait_for(0).size(), 1u);
}

// With the NIC model off a message is due exactly one_way_ns after it was
// sent. Batched delivery must never hand one over before that, even when
// many senders keep several messages due at every wake-up.
TEST(SimNet, NeverDeliversEarlyUnderConcurrentBurst) {
  SimNetParams params = fast_params();
  // Longer than the burst takes to send, so most messages are still in
  // flight, not overdue, when the delivery thread wakes for the first.
  params.one_way_ns = 20 * kMillis;
  SimNetwork net(params);
  auto b = net.add_node("b");
  std::mutex mu;
  std::vector<std::uint64_t> early_by_ns;
  std::atomic<int> delivered{0};
  net.set_sink(b, 0, [&](SimMessage&& message) {
    const std::uint64_t now = mono_ns();
    const std::uint64_t due = message.sent_at_ns + params.one_way_ns;
    if (now < due) {
      std::lock_guard<std::mutex> guard(mu);
      early_by_ns.push_back(due - now);
    }
    delivered.fetch_add(1);
  });
  // Bursts of 100 from each thread, paced so the delivery thread keeps up
  // and wakes while later messages are still in flight.
  constexpr int kThreads = 3, kPerThread = 2000, kBurst = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    const NodeId from = net.add_node("s" + std::to_string(t));
    threads.emplace_back([&, from] {
      for (int i = 0; i < kPerThread; ++i) {
        net.send(from, b, 0, Bytes{1});
        if (i % kBurst == kBurst - 1) std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const std::uint64_t deadline = mono_ns() + 5 * kSeconds;
  while (delivered.load() < kThreads * kPerThread && mono_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  net.set_sink(b, 0, nullptr);
  EXPECT_EQ(delivered.load(), kThreads * kPerThread);
  std::lock_guard<std::mutex> guard(mu);
  EXPECT_TRUE(early_by_ns.empty()) << early_by_ns.size() << " early, first by "
                                   << early_by_ns.front() << " ns";
  EXPECT_EQ(net.lateness().count(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

// send() wakes the delivery thread only for a new earliest message. One
// that becomes the earliest while the thread waits for a far-off one must
// still go out on time, and the far-off one must still wait its turn.
// Both go to b: with no NIC budget, a delay on the a->b link must not
// hold back the c->b link into the same receiver.
TEST(SimNet, NewEarliestMessageWakesDeliveryThread) {
  SimNetwork net(fast_params());
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  auto c = net.add_node("c");
  FaultPlan slow;
  slow.extra_delay_ns = 500 * kMillis;
  net.set_fault(a, b, slow);
  ASSERT_TRUE(net.send(a, b, 0, Bytes{1}));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // thread waits for a->b
  const std::uint64_t t0 = mono_ns();
  ASSERT_TRUE(net.send(c, b, 0, Bytes{2}));
  auto quick = net.recv_for(b, 0, kSeconds);
  ASSERT_TRUE(quick.has_value());
  EXPECT_EQ(quick->from, c);
  EXPECT_LT(mono_ns() - t0, 100 * kMillis) << "c->b waited behind the delayed a->b";
  auto slow_one = net.recv_for(b, 0, 2 * kSeconds);
  ASSERT_TRUE(slow_one.has_value());
  EXPECT_EQ(slow_one->from, a);
  EXPECT_GE(mono_ns(), slow_one->sent_at_ns + 500 * kMillis + fast_params().one_way_ns);
}

// With no NIC budget, jitter reorders: a later message can overtake an
// earlier one into the same receiver, which is what the chaos suites'
// "reordering links" rely on.
TEST(SimNet, JitterReordersWithoutNicBudget) {
  SimNetwork net(fast_params());
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  FaultPlan jittery;
  jittery.jitter_ns = 5 * kMillis;
  net.set_fault(a, b, jittery);
  constexpr int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(net.send(a, b, 0, Bytes{static_cast<std::uint8_t>(i)}));
  }
  int inversions = 0;
  int last = -1;
  for (int n = 0; n < kMessages; ++n) {
    auto msg = net.recv_for(b, 0, kSeconds);
    ASSERT_TRUE(msg.has_value());
    const int index = msg->payload[0];
    if (index < last) ++inversions;
    last = index;
  }
  EXPECT_GT(inversions, 0) << "jitter never reordered a pair";
}

// One batch that mixes sink and inbox destinations: each message lands
// where its (node, channel) says, and each sender's order holds in both.
TEST(SimNet, MixedBatchKeepsDestinationsAndPerSenderOrder) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<Bytes> sunk;
  SimNetwork net(fast_params());
  auto a = net.add_node("a");
  auto c = net.add_node("c");
  auto b = net.add_node("b");
  auto d = net.add_node("d");
  net.set_sink(b, 0, [&](SimMessage&& message) {
    std::unique_lock<std::mutex> lock(mu);
    sunk.push_back(std::move(message.payload));
    cv.notify_all();
    // The first message holds the delivery thread until the rest are due,
    // so they all go out in the next batch.
    cv.wait(lock, [&] { return release; });
  });
  net.send(a, b, 0, Bytes{0xff});
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return !sunk.empty(); }));
  }
  constexpr std::uint8_t kPerSender = 50;
  for (std::uint8_t i = 0; i < kPerSender; ++i) {
    for (NodeId from : {a, c}) {
      const auto tag = static_cast<std::uint8_t>(from);
      net.send(from, b, 0, Bytes{tag, i});  // sink
      net.send(from, b, 1, Bytes{tag, i});  // b's other channel: inbox
      net.send(from, d, 0, Bytes{tag, i});  // another node: inbox
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // all due
  {
    std::lock_guard<std::mutex> guard(mu);
    release = true;
  }
  cv.notify_all();

  const auto check_order = [&](const std::vector<Bytes>& got, const char* where) {
    ASSERT_EQ(got.size(), 2u * kPerSender) << where;
    std::map<std::uint8_t, std::uint8_t> next;
    for (const Bytes& payload : got) {
      ASSERT_EQ(payload.size(), 2u) << where;
      EXPECT_EQ(payload[1], next[payload[0]]++) << where << ", sender " << int{payload[0]};
    }
  };
  const auto drain = [&](NodeId node, Channel channel) {
    std::vector<Bytes> got;
    for (int n = 0; n < 2 * kPerSender; ++n) {
      auto msg = net.recv_for(node, channel, kSeconds);
      if (!msg.has_value()) break;
      got.push_back(std::move(msg->payload));
    }
    EXPECT_FALSE(net.recv_for(node, channel, 10 * kMillis).has_value());
    return got;
  };
  check_order(drain(b, 1), "b:1 inbox");
  check_order(drain(d, 0), "d:0 inbox");
  const std::uint64_t deadline = mono_ns() + 5 * kSeconds;
  std::vector<Bytes> to_sink;
  while (mono_ns() < deadline) {
    {
      std::lock_guard<std::mutex> guard(mu);
      if (sunk.size() >= 1 + 2u * kPerSender) {
        to_sink.assign(sunk.begin() + 1, sunk.end());
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  net.set_sink(b, 0, nullptr);
  check_order(to_sink, "b:0 sink");
  EXPECT_FALSE(net.recv_for(b, 0, 10 * kMillis).has_value()) << "a sink message hit the inbox";
}

// Faults first set after traffic is flowing (a fault-free send takes no
// fault lock) still apply from the next send on, and healing restores the
// link. Messages sent before the cut are already on the wire and arrive.
TEST(SimNet, PartitionSetMidStreamTakesEffect) {
  SimNetwork net(fast_params());
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  for (std::uint8_t i = 0; i < 50; ++i) ASSERT_TRUE(net.send(a, b, 0, Bytes{0, i}));
  net.set_partition(a, b, true);
  for (std::uint8_t i = 0; i < 50; ++i) ASSERT_TRUE(net.send(a, b, 0, Bytes{1, i}));
  net.set_partition(a, b, false);
  for (std::uint8_t i = 0; i < 50; ++i) ASSERT_TRUE(net.send(a, b, 0, Bytes{2, i}));
  for (std::uint8_t phase : {0, 2}) {
    for (std::uint8_t i = 0; i < 50; ++i) {
      auto msg = net.recv_for(b, 0, kSeconds);
      ASSERT_TRUE(msg.has_value()) << "phase " << int{phase} << ", message " << int{i};
      EXPECT_EQ(msg->payload, (Bytes{phase, i}));
    }
  }
  EXPECT_FALSE(net.recv_for(b, 0, 20 * kMillis).has_value());
}

TEST(SimNet, LatenessCountsEveryDeliveryUntilReset) {
  SimNetwork net(fast_params());
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  // A batch records its lateness after its last hand-off: poll for it.
  const auto count_reaches = [&](std::uint64_t want) {
    const std::uint64_t deadline = mono_ns() + 5 * kSeconds;
    while (net.lateness().count() < want && mono_ns() < deadline) std::this_thread::yield();
    return net.lateness().count();
  };
  for (int i = 0; i < 10; ++i) net.send(a, b, 0, Bytes{1});
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(net.recv_for(b, 0, kSeconds).has_value());
  EXPECT_EQ(count_reaches(10), 10u);
  net.reset_lateness();
  EXPECT_EQ(net.lateness().count(), 0u);
  net.send(a, b, 0, Bytes{2});
  ASSERT_TRUE(net.recv_for(b, 0, kSeconds).has_value());
  EXPECT_EQ(count_reaches(1), 1u);
}

TEST(SimNet, CountersTrackPacketsBothSides) {
  SimNetwork net(fast_params());
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.send(a, b, 0, Bytes(3000));  // 3000 bytes => 3 MSS frames
  ASSERT_TRUE(net.recv_for(b, 0, kSeconds).has_value());
  EXPECT_EQ(net.counters(a).packets_out(), 3u);
  EXPECT_EQ(net.counters(a).bytes_out(), 3000u);
  EXPECT_EQ(net.counters(b).packets_in(), 3u);
  EXPECT_EQ(net.counters(b).bytes_in(), 3000u);
}

TEST(SimNet, IdlePingMatchesBaseRtt) {
  SimNetParams params = fast_params();
  params.one_way_ns = 30'000;  // 0.06 ms RTT
  params.node_pps = 150'000;
  SimNetwork net(params);
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  const std::uint64_t rtt = net.ping_rtt_ns(a, b);
  // Idle: two propagation legs plus four negligible NIC slots.
  EXPECT_GE(rtt, 60'000u);
  EXPECT_LE(rtt, 120'000u);
}

TEST(SimNet, LoadedNodePingInflates) {
  // Reproduces the Table II mechanism: saturating one node's NIC inflates
  // RTT to *that node only*.
  SimNetParams params = fast_params();
  params.one_way_ns = 30'000;
  // A small budget, so the burst below queues far more NIC time than it
  // takes to send even in a sanitizer build (at 100K pps a slow build
  // drained much of the backlog before the probe ran).
  params.node_pps = 10'000;
  SimNetwork net(params);
  auto leader = net.add_node("leader");
  auto follower = net.add_node("follower");
  auto other1 = net.add_node("other1");
  auto other2 = net.add_node("other2");

  // Saturate the leader NIC: reserve ~200ms of NIC time in one burst.
  for (int i = 0; i < 2000; ++i) net.send(leader, follower, 1, Bytes(100));

  const std::uint64_t rtt_to_leader = net.ping_rtt_ns(other1, leader);
  const std::uint64_t rtt_others = net.ping_rtt_ns(other1, other2);
  EXPECT_GT(rtt_to_leader, 10 * rtt_others)
      << "leader RTT should inflate (paper: 0.06 ms -> 2.5 ms)";
  EXPECT_LT(rtt_others, 200'000u) << "bystander links stay near idle RTT";
}

TEST(SimNet, UnlimitedNicNodeIsExempt) {
  SimNetParams params = fast_params();
  params.node_pps = 1000;  // tiny budget
  SimNetwork net(params);
  auto a = net.add_node("client-machine", /*unlimited_nic=*/true);
  auto b = net.add_node("b", /*unlimited_nic=*/true);
  const auto t0 = mono_ns();
  for (int i = 0; i < 500; ++i) net.send(a, b, 0, Bytes{1});
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(net.recv_for(b, 0, kSeconds).has_value());
  EXPECT_LT(mono_ns() - t0, kSeconds) << "500 packets at pps=1000 would take 0.5s if charged";
}

TEST(SimNet, ThroughputCappedByPpsBudget) {
  SimNetParams params = fast_params();
  params.node_pps = 10'000;
  SimNetwork net(params);
  auto a = net.add_node("a");
  auto b = net.add_node("b", /*unlimited_nic=*/true);

  // Sending 1000 single-packet messages must take >= ~100 ms of NIC time.
  const auto t0 = mono_ns();
  for (int i = 0; i < 1000; ++i) net.send(a, b, 0, Bytes{1});
  int received = 0;
  while (received < 1000) {
    if (net.recv_for(b, 0, 2 * kSeconds).has_value()) {
      ++received;
    } else {
      break;
    }
  }
  const double elapsed_s = static_cast<double>(mono_ns() - t0) * 1e-9;
  EXPECT_EQ(received, 1000);
  EXPECT_GE(elapsed_s, 0.08) << "pps budget not enforced";
}

TEST(SimNet, SendAfterShutdownFails) {
  SimNetwork net(fast_params());
  auto a = net.add_node("a");
  auto b = net.add_node("b");
  net.shutdown();
  EXPECT_FALSE(net.send(a, b, 0, Bytes{1}));
}

TEST(SimNet, ManyToOneStress) {
  SimNetwork net(fast_params());
  auto sink = net.add_node("sink");
  constexpr int kSenders = 4, kPerSender = 2000;
  std::vector<NodeId> senders;
  for (int i = 0; i < kSenders; ++i) senders.push_back(net.add_node("s" + std::to_string(i)));

  std::vector<std::thread> threads;
  for (int s = 0; s < kSenders; ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < kPerSender; ++i) {
        Bytes payload(8);
        const std::uint64_t v =
            (static_cast<std::uint64_t>(s) << 32) | static_cast<std::uint32_t>(i);
        for (int byte = 0; byte < 8; ++byte) {
          payload[static_cast<std::size_t>(byte)] = static_cast<std::uint8_t>(v >> (8 * byte));
        }
        ASSERT_TRUE(net.send(senders[static_cast<std::size_t>(s)], sink, 0, std::move(payload)));
      }
    });
  }

  std::set<std::uint64_t> seen;
  for (int i = 0; i < kSenders * kPerSender; ++i) {
    auto msg = net.recv_for(sink, 0, 5 * kSeconds);
    ASSERT_TRUE(msg.has_value());
    std::uint64_t v = 0;
    for (int byte = 0; byte < 8; ++byte) {
      v |= static_cast<std::uint64_t>(msg->payload[static_cast<std::size_t>(byte)]) << (8 * byte);
    }
    EXPECT_TRUE(seen.insert(v).second) << "duplicate delivery";
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kSenders) * kPerSender);
}

}  // namespace
}  // namespace mcsmr::net
