// Unit tests for the Retransmitter (§V-C4): timed re-broadcast, the
// lock-free cancel path, replacement, cancel_all on view change, and the
// wake-up discipline (lazy drop of cancelled entries, no wake for a
// deadline that is not the earliest).
#include "smr/retransmitter.hpp"

#include <gtest/gtest.h>

#include <map>

#include "net/simnet.hpp"
#include "smr/transport.hpp"

namespace mcsmr::smr {
namespace {

struct RetransmitRig {
  explicit RetransmitRig(std::uint64_t timeout_ns) : shared(2) {
    config.n = 2;
    config.retransmit_timeout_ns = timeout_ns;
    net_params.node_pps = 0;
    net_params.node_bandwidth_bps = 0;
    net_params.one_way_ns = 1000;
    net = std::make_unique<net::SimNetwork>(net_params);
    nodes = {net->add_node("self"), net->add_node("peer")};
    transport = std::make_unique<SimPeerTransport>(*net, nodes, 0);
    dispatcher = std::make_unique<DispatcherQueue>(64, "d");
    replica_io = std::make_unique<ReplicaIo>(config, 0, *transport, *dispatcher, shared);
    replica_io->start();
    retransmitter = std::make_unique<Retransmitter>(config, *replica_io);
    retransmitter->start();
  }
  ~RetransmitRig() {
    retransmitter->stop();
    replica_io->stop();
  }

  /// Frames the peer received within `wait_ns`.
  int drain_peer(std::uint64_t wait_ns) {
    int count = 0;
    const std::uint64_t deadline = mono_ns() + wait_ns;
    for (;;) {
      const std::uint64_t now = mono_ns();
      if (now >= deadline) break;
      if (net->recv_for(nodes[1], kPeerChannelBase + 0, deadline - now)) ++count;
    }
    return count;
  }

  /// First arrival time at the peer of each resent Accept, by instance,
  /// over `wait_ns`.
  std::map<paxos::InstanceId, std::uint64_t> first_arrivals(std::uint64_t wait_ns) {
    std::map<paxos::InstanceId, std::uint64_t> arrivals;
    const std::uint64_t deadline = mono_ns() + wait_ns;
    for (;;) {
      const std::uint64_t now = mono_ns();
      if (now >= deadline) break;
      auto msg = net->recv_for(nodes[1], kPeerChannelBase + 0, deadline - now);
      if (!msg) continue;
      const auto wire = paxos::decode_message(msg->payload);
      arrivals.emplace(std::get<paxos::Accept>(wire.message).instance, mono_ns());
    }
    return arrivals;
  }

  Config config;
  net::SimNetParams net_params;
  std::unique_ptr<net::SimNetwork> net;
  std::vector<net::NodeId> nodes;
  std::unique_ptr<SimPeerTransport> transport;
  std::unique_ptr<DispatcherQueue> dispatcher;
  SharedState shared;
  std::unique_ptr<ReplicaIo> replica_io;
  std::unique_ptr<Retransmitter> retransmitter;
};

TEST(Retransmitter, ResendsUntilCancelled) {
  RetransmitRig rig(30 * kMillis);
  rig.retransmitter->schedule(1, paxos::Accept{1, 1});
  const int resends = rig.drain_peer(200 * kMillis);
  EXPECT_GE(resends, 3) << "expected several periodic re-broadcasts";
  EXPECT_GE(rig.retransmitter->resends(), 3u);
}

TEST(Retransmitter, CancelSuppressesResend) {
  RetransmitRig rig(50 * kMillis);
  rig.retransmitter->schedule(1, paxos::Accept{1, 1});
  rig.retransmitter->cancel(1);  // lock-free, before the first deadline
  EXPECT_EQ(rig.retransmitter->armed(), 0u);
  EXPECT_EQ(rig.drain_peer(150 * kMillis), 0) << "cancelled message resent";
}

TEST(Retransmitter, CancelUnknownKeyIsNoop) {
  RetransmitRig rig(50 * kMillis);
  rig.retransmitter->cancel(12345);
  EXPECT_EQ(rig.retransmitter->armed(), 0u);
}

TEST(Retransmitter, ScheduleReplacesSameKey) {
  RetransmitRig rig(30 * kMillis);
  rig.retransmitter->schedule(1, paxos::Accept{1, 100});
  rig.retransmitter->schedule(1, paxos::Accept{2, 100});  // re-proposal, new view
  EXPECT_EQ(rig.retransmitter->armed(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  // Only view-2 Accepts should flow.
  int view2 = 0, total = 0;
  const std::uint64_t deadline = mono_ns() + 50 * kMillis;
  while (mono_ns() < deadline) {
    auto msg = rig.net->recv_for(rig.nodes[1], kPeerChannelBase + 0, 10 * kMillis);
    if (!msg) continue;
    ++total;
    auto wire = paxos::decode_message(msg->payload);
    if (std::get<paxos::Accept>(wire.message).view == 2) ++view2;
  }
  EXPECT_GT(total, 0);
  EXPECT_EQ(view2, total) << "stale entry kept firing after replacement";
}

TEST(Retransmitter, CancelAllClearsEverything) {
  RetransmitRig rig(40 * kMillis);
  for (std::uint64_t key = 0; key < 10; ++key) {
    rig.retransmitter->schedule(key, paxos::Accept{1, key});
  }
  EXPECT_EQ(rig.retransmitter->armed(), 10u);
  rig.retransmitter->cancel_all();
  EXPECT_EQ(rig.retransmitter->armed(), 0u);
  EXPECT_EQ(rig.drain_peer(120 * kMillis), 0);
}

TEST(Retransmitter, ManyCancelsAreCheap) {
  // The hot path: one schedule+cancel per ordered message. This is a
  // smoke-check that 10K cycles complete promptly (lock-free cancel).
  RetransmitRig rig(10 * kSeconds);  // deadlines never fire
  const auto t0 = mono_ns();
  for (std::uint64_t key = 0; key < 10'000; ++key) {
    rig.retransmitter->schedule(key, paxos::Accept{1, key});
    rig.retransmitter->cancel(key);
  }
  EXPECT_LT(mono_ns() - t0, 2 * kSeconds);
  EXPECT_EQ(rig.retransmitter->armed(), 0u);
}

TEST(Retransmitter, LiveEntryBehindCancelledOnesStillResends) {
  // Thousands of cancelled entries sit ahead of the live one in the heap;
  // the thread must skip them, not sleep past the live deadline.
  constexpr std::uint64_t kTimeout = 80 * kMillis;
  constexpr std::uint64_t kSlack = 150 * kMillis;
  RetransmitRig rig(kTimeout);
  for (std::uint64_t key = 0; key < 5'000; ++key) {
    rig.retransmitter->schedule(key, paxos::Accept{1, key});
    rig.retransmitter->cancel(key);
  }
  const std::uint64_t scheduled_at = mono_ns();
  rig.retransmitter->schedule(99'999, paxos::Accept{1, 99'999});
  const auto arrivals = rig.first_arrivals(kTimeout + kSlack);
  ASSERT_EQ(arrivals.size(), 1u) << "only the live entry may be resent";
  ASSERT_EQ(arrivals.begin()->first, 99'999u);
  EXPECT_LE(arrivals.begin()->second - scheduled_at, kTimeout + kSlack);
}

TEST(Retransmitter, LaterScheduleKeepsEarlierDeadline) {
  // schedule() wakes the thread only for a new earliest deadline; a later
  // one must neither postpone nor drop the entry already armed.
  constexpr std::uint64_t kTimeout = 100 * kMillis;
  constexpr std::uint64_t kSlack = 150 * kMillis;
  RetransmitRig rig(kTimeout);
  const std::uint64_t first_at = mono_ns();
  rig.retransmitter->schedule(1, paxos::Accept{1, 1});
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  rig.retransmitter->schedule(2, paxos::Accept{1, 2});
  const auto arrivals = rig.first_arrivals(kTimeout + kSlack);
  ASSERT_EQ(arrivals.count(1), 1u) << "earlier entry dropped";
  ASSERT_EQ(arrivals.count(2), 1u) << "later entry dropped";
  EXPECT_LE(arrivals.at(1) - first_at, kTimeout + kSlack) << "earlier entry postponed";
  EXPECT_LE(arrivals.at(1), arrivals.at(2));
}

TEST(Retransmitter, HotPathDoesNotWakeTheThread) {
  // One schedule + cancel per decided instance: after the first schedule
  // arms a deadline, later (never earlier) deadlines must not wake the
  // thread, and cancels never do.
  RetransmitRig rig(10 * kSeconds);  // deadlines never fire
  rig.retransmitter->schedule(0, paxos::Accept{1, 0});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // thread asleep on it
  const std::uint64_t before = rig.retransmitter->wakeups();
  for (std::uint64_t key = 1; key <= 10'000; ++key) {
    rig.retransmitter->schedule(key, paxos::Accept{1, key});
    rig.retransmitter->cancel(key);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_LE(rig.retransmitter->wakeups() - before, 2u) << "schedule() woke the thread";
}

TEST(Retransmitter, CancelledDeadlinesDoNotWakeTheThread) {
  // A live entry keeps the thread on a timed sleep while 500 entries,
  // each cancelled right away, arrive behind it with deadlines 100 us
  // apart. When the live one fires, the thread must drop the cancelled
  // ones at once rather than sleep until each of their deadlines.
  constexpr std::uint64_t kTimeout = 50 * kMillis;
  RetransmitRig rig(kTimeout);
  rig.retransmitter->schedule(0, paxos::Accept{1, 0});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::uint64_t before = rig.retransmitter->wakeups();
  const std::uint64_t t0 = mono_ns();
  for (std::uint64_t key = 1; key <= 500; ++key) {
    rig.retransmitter->schedule(key, paxos::Accept{1, key});
    rig.retransmitter->cancel(key);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2 * kTimeout / kMillis));
  // Allow the live entry's own firings (one per timeout) twice over, plus
  // a few spurious wake-ups; a wake per cancelled deadline would be ~500.
  const std::uint64_t allowed = 2 * (mono_ns() - t0) / kTimeout + 5;
  EXPECT_LE(rig.retransmitter->wakeups() - before, allowed);
  EXPECT_GE(rig.retransmitter->resends(), 2u);
}

TEST(Retransmitter, StopIsPromptWithCancelledBacklog) {
  RetransmitRig rig(10 * kSeconds);  // deadlines never fire
  for (std::uint64_t key = 0; key < 10'000; ++key) {
    rig.retransmitter->schedule(key, paxos::Accept{1, key});
    rig.retransmitter->cancel(key);
  }
  const std::uint64_t t0 = mono_ns();
  rig.retransmitter->stop();
  EXPECT_LT(mono_ns() - t0, 500 * kMillis);
}

}  // namespace
}  // namespace mcsmr::smr
