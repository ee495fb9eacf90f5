// Unit tests for the FailureDetector thread (§V-C3): leader heartbeats,
// timestamp-driven suspicion without notifications, per-view dedup, and
// catch-up ticks.
#include "smr/failure_detector.hpp"

#include <gtest/gtest.h>

#include "net/simnet.hpp"
#include "smr/transport.hpp"

namespace mcsmr::smr {
namespace {

struct FdRig {
  FdRig(std::uint64_t heartbeat_ns, std::uint64_t suspect_ns) : shared(3) {
    config.n = 3;
    config.fd_heartbeat_interval_ns = heartbeat_ns;
    config.fd_suspect_timeout_ns = suspect_ns;
    config.catchup_interval_ns = 50 * kMillis;
    net_params.node_pps = 0;
    net_params.node_bandwidth_bps = 0;
    net_params.one_way_ns = 1000;
    net = std::make_unique<net::SimNetwork>(net_params);
    nodes = {net->add_node("r0"), net->add_node("r1"), net->add_node("r2")};
    transport = std::make_unique<SimPeerTransport>(*net, nodes, 1);  // we are replica 1
    dispatcher = std::make_unique<DispatcherQueue>(256, "d");
    replica_io = std::make_unique<ReplicaIo>(config, 1, *transport);
    replica_io->register_partition(*dispatcher, shared);
    replica_io->start();
    fd = std::make_unique<FailureDetector>(config, 1, *replica_io, *dispatcher, shared);
  }
  ~FdRig() {
    fd->stop();
    replica_io->stop();
  }

  Config config;
  net::SimNetParams net_params;
  std::unique_ptr<net::SimNetwork> net;
  std::vector<net::NodeId> nodes;
  std::unique_ptr<SimPeerTransport> transport;
  std::unique_ptr<DispatcherQueue> dispatcher;
  SharedState shared;
  std::unique_ptr<ReplicaIo> replica_io;
  std::unique_ptr<FailureDetector> fd;
};

TEST(FailureDetector, LeaderBroadcastsHeartbeats) {
  FdRig rig(20 * kMillis, 10 * kSeconds);
  rig.shared.is_leader.store(true);
  rig.shared.view.store(1);  // we lead view 1 (1 % 3 == 1)
  rig.shared.first_undecided.store(42);
  rig.fd->start();

  // Replica 0 should receive heartbeats on our peer channel.
  auto msg = rig.net->recv_for(rig.nodes[0], kPeerChannelBase + 1, 2 * kSeconds);
  ASSERT_TRUE(msg.has_value());
  auto wire = paxos::decode_message(msg->payload);
  ASSERT_TRUE(std::holds_alternative<paxos::Heartbeat>(wire.message));
  const auto& hb = std::get<paxos::Heartbeat>(wire.message);
  EXPECT_EQ(hb.view, 1u);
  EXPECT_EQ(hb.first_undecided, 42u);
}

TEST(FailureDetector, FollowerSuspectsSilentLeader) {
  FdRig rig(20 * kMillis, 60 * kMillis);
  rig.shared.is_leader.store(false);
  rig.shared.view.store(0);  // leader is replica 0, who stays silent
  rig.fd->start();

  const std::uint64_t deadline = mono_ns() + 3 * kSeconds;
  bool suspected = false;
  while (mono_ns() < deadline && !suspected) {
    auto event = rig.dispatcher->pop_for(100 * kMillis);
    if (event && std::holds_alternative<SuspectEvent>(*event)) {
      EXPECT_EQ(std::get<SuspectEvent>(*event).suspected_view, 0u);
      suspected = true;
    }
  }
  EXPECT_TRUE(suspected);
}

TEST(FailureDetector, FreshTimestampsPreventSuspicion) {
  FdRig rig(20 * kMillis, 80 * kMillis);
  rig.shared.is_leader.store(false);
  rig.shared.view.store(0);
  rig.fd->start();

  // Keep the leader's last_recv fresh, as ReplicaIo::on_frame would
  // (§V-C3: direct timestamp writes, no notification).
  const std::uint64_t until = mono_ns() + 400 * kMillis;
  bool suspected = false;
  while (mono_ns() < until) {
    rig.shared.last_recv_ns[0].store(mono_ns(), std::memory_order_relaxed);
    if (auto event = rig.dispatcher->try_pop()) {
      if (std::holds_alternative<SuspectEvent>(*event)) suspected = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(suspected) << "suspected a live leader";
}

TEST(FailureDetector, RearmsSuspicionOncePerDeadline) {
  // Suspicion re-arms after each full suspect deadline (a lease-mode
  // engine may defer candidacy and needs to hear again) but must not
  // fire on every tick: 600 ms at a 40 ms deadline allows ~15 events,
  // while per-tick flooding (tick = heartbeat/2 = 10 ms) would push 60.
  FdRig rig(20 * kMillis, 40 * kMillis);
  rig.shared.is_leader.store(false);
  rig.shared.view.store(0);
  rig.fd->start();
  std::this_thread::sleep_for(std::chrono::milliseconds(600));

  int suspect_events = 0;
  while (auto event = rig.dispatcher->try_pop()) {
    if (std::holds_alternative<SuspectEvent>(*event)) ++suspect_events;
  }
  EXPECT_GE(suspect_events, 2) << "suspicion must re-arm for deferred candidates";
  EXPECT_LE(suspect_events, 20) << "suspicion must not flood the dispatcher";
}

TEST(FailureDetector, EmitsCatchupTicks) {
  FdRig rig(20 * kMillis, 10 * kSeconds);
  rig.shared.is_leader.store(false);
  rig.shared.view.store(1);  // we "lead": no suspicion path interference
  rig.fd->start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  int ticks = 0;
  while (auto event = rig.dispatcher->try_pop()) {
    if (std::holds_alternative<CatchupTickEvent>(*event)) ++ticks;
  }
  EXPECT_GE(ticks, 2);
}

TEST(FailureDetector, LeaderDoesNotSuspectItself) {
  FdRig rig(20 * kMillis, 40 * kMillis);
  rig.shared.is_leader.store(true);
  rig.shared.view.store(1);
  rig.fd->start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  while (auto event = rig.dispatcher->try_pop()) {
    EXPECT_FALSE(std::holds_alternative<SuspectEvent>(*event));
  }
}

}  // namespace
}  // namespace mcsmr::smr
