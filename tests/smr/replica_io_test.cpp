// Unit tests for ReplicaIo (§V-B).
//
// Send path: frames go out on the caller's thread when the transport never
// blocks, through the SendQueue to ReplicaIOSnd-p otherwise. A failed
// inline write and a full SendQueue are counted drops that never block the
// caller, and a transport that may block (TCP) or the ZooKeeper-like
// baseline never writes on the caller's thread.
//
// Receive path: over SimNet, which pushes frames, the delivery thread
// hands each frame to the owning partition's DispatcherQueue and no
// ReplicaIORcv thread exists; a full DispatcherQueue is a counted drop
// that never stalls delivery. TCP keeps one ReplicaIORcv thread per peer,
// and the baseline keeps receiving on its own LearnerHandler threads.
#include "smr/replica_io.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <thread>

#include "baseline/zk_cluster.hpp"
#include "metrics/thread_stats.hpp"
#include "smr/client.hpp"

namespace mcsmr::smr {
namespace {

/// Records every frame it is handed (a decoded Accept whose instance is a
/// sequence number) with the writing thread; can be told to
/// park writes until release(), or to fail them as a down link would.
class FakeTransport : public PeerTransport {
 public:
  struct Write {
    ReplicaId to;
    std::thread::id thread;
    paxos::InstanceId seq;
  };

  explicit FakeTransport(bool may_block) : may_block_(may_block) {}

  std::optional<Bytes> recv_from(ReplicaId) override { return std::nullopt; }

  bool send_to(ReplicaId to, const Bytes& frame) override {
    park();
    if (link_down_) return false;
    const auto accept = std::get<paxos::Accept>(paxos::decode_message(frame).message);
    {
      std::lock_guard<std::mutex> guard(mu_);
      writes_.push_back(Write{to, std::this_thread::get_id(), accept.instance});
    }
    cv_.notify_all();
    return true;
  }

  void shutdown() override { release(); }
  bool send_may_block() const override { return may_block_; }

  /// Every later write parks until release(), or for at most 10 s so a
  /// write parked on the wrong thread fails the test instead of hanging it.
  void hold() {
    std::lock_guard<std::mutex> guard(mu_);
    held_ = true;
  }
  void release() {
    {
      std::lock_guard<std::mutex> guard(mu_);
      held_ = false;
    }
    cv_.notify_all();
  }
  /// Wait up to 10 s for a write parked by hold(); false if none came.
  bool wait_parked() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10), [&] { return parked_ > 0; });
  }
  /// Fail every later write, as send_to() does on a broken link.
  void take_link_down() { link_down_ = true; }

  /// The writes so far, once at least `count` have arrived (or after 10 s).
  std::vector<Write> wait_for(std::size_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::seconds(10), [&] { return writes_.size() >= count; });
    return writes_;
  }

 private:
  void park() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!held_) return;
    ++parked_;
    cv_.notify_all();
    cv_.wait_for(lock, std::chrono::seconds(10), [&] { return !held_; });
    --parked_;
  }

  const bool may_block_;
  std::atomic<bool> link_down_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  int parked_ = 0;
  std::vector<Write> writes_;
};

struct IoRig {
  IoRig(int n, bool may_block) : transport(may_block), shared(n) {
    config.n = n;
    io = std::make_unique<ReplicaIo>(config, 0, transport);
    io->register_partition(dispatcher, shared);
    io->start(/*spawn_receivers=*/false);
  }
  ~IoRig() { io->stop(); }

  std::uint64_t inline_frames() const { return shared.inline_peer_frames.load(); }
  std::uint64_t dropped_frames() const { return shared.dropped_peer_frames.load(); }

  Config config;
  FakeTransport transport;
  DispatcherQueue dispatcher{64, "d"};
  SharedState shared;
  std::unique_ptr<ReplicaIo> io;
};

paxos::Accept frame_of(std::uint64_t seq) { return paxos::Accept{0, seq}; }

/// Names of the registered threads whose name contains `part`.
std::vector<std::string> threads_named(const std::string& part) {
  std::vector<std::string> names;
  for (const auto& snap : metrics::ThreadRegistry::instance().snapshot_all()) {
    if (snap.name.find(part) != std::string::npos) names.push_back(snap.name);
  }
  return names;
}

TEST(ReplicaIo, NeverBlockingTransportSendsOnCallersThread) {
  IoRig rig(3, /*may_block=*/false);
  ASSERT_TRUE(rig.io->send(1, frame_of(0)));
  rig.io->broadcast(frame_of(1));
  // Inline: all three writes are done when the calls return.
  const auto writes = rig.transport.wait_for(0);
  ASSERT_EQ(writes.size(), 3u);
  for (const auto& write : writes) EXPECT_EQ(write.thread, std::this_thread::get_id());
  EXPECT_EQ(writes[0].to, 1u);
  EXPECT_EQ(rig.inline_frames(), 3u);
  EXPECT_EQ(rig.dropped_frames(), 0u);
}

TEST(ReplicaIo, FailedInlineWriteIsCountedDrop) {
  IoRig rig(3, /*may_block=*/false);
  rig.transport.take_link_down();
  EXPECT_FALSE(rig.io->send(1, frame_of(0)));
  rig.io->broadcast(frame_of(1));
  EXPECT_EQ(rig.dropped_frames(), 3u);
  EXPECT_EQ(rig.inline_frames(), 0u);
}

TEST(ReplicaIo, TransportThatMayBlockNeverWritesOnCaller) {
  IoRig rig(3, /*may_block=*/true);
  for (std::uint64_t seq = 0; seq < 100; ++seq) rig.io->broadcast(frame_of(seq));
  const auto writes = rig.transport.wait_for(200);
  ASSERT_EQ(writes.size(), 200u);
  std::size_t on_caller = 0;
  for (const auto& write : writes) on_caller += write.thread == std::this_thread::get_id() ? 1 : 0;
  EXPECT_EQ(on_caller, 0u);
  EXPECT_EQ(rig.inline_frames(), 0u);
}

TEST(ReplicaIo, TcpFramesLeaveOnSenderThread) {
  Config config;
  config.n = 2;
  constexpr std::uint16_t kBasePort = 21700;
  std::unique_ptr<TcpPeerTransport> links[2];
  {
    std::thread peer([&] {
      links[1] = TcpPeerTransport::connect_all(config, 1, kBasePort, mono_ns() + 5 * kSeconds);
    });
    links[0] = TcpPeerTransport::connect_all(config, 0, kBasePort, mono_ns() + 5 * kSeconds);
    peer.join();
  }
  ASSERT_TRUE(links[0] && links[1]) << "loopback link failed to form";
  EXPECT_TRUE(links[0]->send_may_block());

  SharedState shared(2);
  DispatcherQueue dispatcher(64, "d");
  ReplicaIo io(config, 0, *links[0]);
  io.register_partition(dispatcher, shared);
  io.start(/*spawn_receivers=*/false);
  for (std::uint64_t seq = 0; seq < 50; ++seq) EXPECT_TRUE(io.send(1, frame_of(seq)));
  for (std::uint64_t seq = 0; seq < 50; ++seq) {
    const auto frame = links[1]->recv_from(0);
    if (!frame.has_value()) {
      ADD_FAILURE() << "link closed before frame " << seq;
      break;
    }
    EXPECT_EQ(std::get<paxos::Accept>(paxos::decode_message(*frame).message).instance, seq);
  }
  EXPECT_EQ(shared.inline_peer_frames.load(), 0u);
  io.stop();
  links[1]->shutdown();
}

TEST(ReplicaIo, FullSendQueueDropsAndCountsWithoutBlocking) {
  constexpr std::uint64_t kOver = 100;
  IoRig rig(2, /*may_block=*/true);
  rig.transport.hold();
  ASSERT_TRUE(rig.io->send(1, frame_of(0)));
  // ReplicaIOSnd-1 holds frame 0: the queue is empty. Fill it and overflow
  // it by kOver; no call may wait for the parked write (10 s).
  ASSERT_TRUE(rig.transport.wait_parked()) << "frame 0 was written on the caller's thread";
  const std::uint64_t start = mono_ns();
  std::uint64_t failed = 0;
  for (std::uint64_t seq = 1; seq <= ReplicaIo::kSendQueueCap + kOver; ++seq) {
    failed += rig.io->send(1, frame_of(seq)) ? 0 : 1;
  }
  EXPECT_LT(mono_ns() - start, 5 * kSeconds) << "a send waited for the parked write";
  EXPECT_EQ(failed, kOver);
  EXPECT_EQ(rig.dropped_frames(), kOver);
  rig.transport.release();
  // Whatever was accepted is still written, in order, exactly once.
  const auto writes = rig.transport.wait_for(1 + ReplicaIo::kSendQueueCap);
  ASSERT_EQ(writes.size(), 1 + ReplicaIo::kSendQueueCap);
  for (std::uint64_t seq = 0; seq < writes.size(); ++seq) EXPECT_EQ(writes[seq].seq, seq);
}

TEST(ReplicaIo, BaselineSendsOnSenderThreadsAndReceivesOnLearnerHandlers) {
  net::SimNetParams params;
  params.one_way_ns = 20'000;
  params.node_pps = 0;
  params.node_bandwidth_bps = 0;
  net::SimNetwork net(params);
  baseline::ZkParams zk;
  zk.prep_cost_ns = zk.sync_cost_ns = zk.commit_cost_ns = 200;
  baseline::ZkCluster cluster(Config{}, net, zk);
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());

  SimClient client(net, cluster.nodes(), 1, cluster.config().client_io_threads);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.call(Bytes{static_cast<std::uint8_t>(i)}).has_value()) << i;
  }
  // Followers execute only what reached them over the peer links.
  const std::uint64_t deadline = mono_ns() + 5 * kSeconds;
  for (ReplicaId id = 0; id < 3; ++id) {
    while (cluster.replica(id).executed_requests() < 20 && mono_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GE(cluster.replica(id).executed_requests(), 20u) << "replica " << id;
  }
  cluster.stop();
  for (ReplicaId id = 0; id < 3; ++id) {
    EXPECT_EQ(cluster.replica(id).shared().inline_peer_frames.load(), 0u) << "replica " << id;
  }
  // The followers' frames came through recv_from on the baseline's own
  // threads: ReplicaIo attached no receiver and started no receive thread.
  EXPECT_EQ(threads_named("LearnerHandler-").size(), 6u);
  EXPECT_TRUE(threads_named("ReplicaIORcv-").empty());
}

// --- receive path -------------------------------------------------------------

/// A peer's encoded Accept carrying `seq` as its instance.
Bytes accept_frame(ReplicaId from, std::uint64_t seq) {
  return paxos::encode_message(from, paxos::Accept{0, seq});
}

/// The next event on `dispatcher` as (sender, Accept instance); nullopt if
/// none comes within `timeout_ns`.
std::optional<std::pair<ReplicaId, paxos::InstanceId>> next_accept(
    DispatcherQueue& dispatcher, std::uint64_t timeout_ns = 5 * kSeconds) {
  auto event = dispatcher.pop_for(timeout_ns);
  if (!event.has_value()) return std::nullopt;
  const auto& peer = std::get<PeerMessageEvent>(*event);
  return std::make_pair(peer.from, std::get<paxos::Accept>(peer.message).instance);
}

/// Replica 0's ReplicaIo over SimNet, not yet started; the test plays
/// replicas 1 and 2 by sending on their links. Members are declared so the
/// network's delivery thread stops before the queues it feeds go away.
struct SimRcvRig {
  explicit SimRcvRig(const std::string& prefix, std::size_t dispatcher_cap = 64)
      : shared(3), dispatcher(dispatcher_cap, "d") {
    config.n = 3;
    config.thread_name_prefix = prefix;
    net::SimNetParams params;
    params.one_way_ns = 1000;
    params.node_pps = 0;
    params.node_bandwidth_bps = 0;
    net = std::make_unique<net::SimNetwork>(params);
    nodes = {net->add_node("r0"), net->add_node("r1"), net->add_node("r2")};
    transport = std::make_unique<SimPeerTransport>(*net, nodes, 0);
  }

  /// Replica `from` sends `frame` to replica 0.
  void send_from(ReplicaId from, Bytes frame) {
    net->send(nodes[from], nodes[0], kPeerChannelBase + from, std::move(frame));
  }

  Config config;
  SharedState shared;
  DispatcherQueue dispatcher;
  std::unique_ptr<net::SimNetwork> net;
  std::vector<net::NodeId> nodes;
  std::unique_ptr<SimPeerTransport> transport;
};

TEST(ReplicaIo, SimNetFramesReachDispatcherWithoutReceiveThreads) {
  SimRcvRig rig("simrcv/");
  ReplicaIo io(rig.config, 0, *rig.transport);
  io.register_partition(rig.dispatcher, rig.shared);
  rig.shared.last_recv_ns[1].store(0);
  rig.shared.last_recv_ns[2].store(0);
  // Sent before start: it waits in the inbox and is handed over first.
  rig.send_from(1, accept_frame(1, 0));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  io.start();
  rig.send_from(2, accept_frame(2, 1));
  EXPECT_EQ(next_accept(rig.dispatcher), std::make_pair(ReplicaId{1}, paxos::InstanceId{0}));
  EXPECT_EQ(next_accept(rig.dispatcher), std::make_pair(ReplicaId{2}, paxos::InstanceId{1}));
  EXPECT_GT(rig.shared.last_recv_ns[1].load(), 0u);
  EXPECT_GT(rig.shared.last_recv_ns[2].load(), 0u);
  EXPECT_EQ(rig.shared.dropped_peer_frames.load(), 0u);
  EXPECT_TRUE(threads_named("simrcv/ReplicaIORcv-").empty());
  EXPECT_TRUE(threads_named("simrcv/ReplicaIOSnd-").empty());
  io.stop();
  // Detached: a frame sent now stays in the inbox.
  rig.send_from(1, accept_frame(1, 2));
  EXPECT_FALSE(next_accept(rig.dispatcher, 50 * kMillis).has_value());
}

// One delivery thread serves every node, so a full DispatcherQueue must
// cost only this replica's frame, as a full NIC ring would.
TEST(ReplicaIo, FullDispatcherQueueIsCountedDropThatNeverStallsDelivery) {
  constexpr std::size_t kCap = 4;
  constexpr std::uint64_t kSent = 10;
  SimRcvRig rig("fullrcv/", kCap);
  ReplicaIo io(rig.config, 0, *rig.transport);
  io.register_partition(rig.dispatcher, rig.shared);
  io.start();
  for (std::uint64_t seq = 0; seq < kSent; ++seq) rig.send_from(1, accept_frame(1, seq));
  const std::uint64_t deadline = mono_ns() + 5 * kSeconds;
  while (rig.shared.dropped_peer_frames.load() < kSent - kCap && mono_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rig.shared.dropped_peer_frames.load(), kSent - kCap);
  // The delivery thread still delivers other traffic.
  rig.net->send(rig.nodes[1], rig.nodes[0], 7, Bytes{1});
  EXPECT_TRUE(rig.net->recv_for(rig.nodes[0], 7, kSeconds).has_value());
  ASSERT_EQ(rig.dispatcher.size(), kCap);
  for (std::uint64_t seq = 0; seq < kCap; ++seq) {
    EXPECT_EQ(next_accept(rig.dispatcher), std::make_pair(ReplicaId{1}, seq));
  }
  rig.dispatcher.close();  // as Replica::stop does before stopping ReplicaIo
  io.stop();
}

TEST(ReplicaIo, MalformedFrameIsDropped) {
  SimRcvRig rig("badrcv/");
  ReplicaIo io(rig.config, 0, *rig.transport);
  io.register_partition(rig.dispatcher, rig.shared);
  io.start();
  rig.send_from(1, Bytes{0xde, 0xad});
  rig.send_from(1, accept_frame(1, 7));
  EXPECT_EQ(next_accept(rig.dispatcher), std::make_pair(ReplicaId{1}, paxos::InstanceId{7}));
  EXPECT_FALSE(next_accept(rig.dispatcher, 20 * kMillis).has_value());
  io.stop();
}

TEST(ReplicaIo, PartitionTagPicksDispatcher) {
  SimRcvRig rig("partrcv/");
  SharedState shared1(3);
  DispatcherQueue dispatcher1(64, "d1");
  ReplicaIo io(rig.config, 0, *rig.transport);
  io.register_partition(rig.dispatcher, rig.shared);
  io.register_partition(dispatcher1, shared1);
  io.start();
  const auto tagged = [](std::uint8_t partition, std::uint64_t seq) {
    Bytes frame{partition};
    const Bytes inner = accept_frame(2, seq);
    frame.insert(frame.end(), inner.begin(), inner.end());
    return frame;
  };
  rig.send_from(2, tagged(1, 11));
  rig.send_from(2, tagged(5, 12));  // no such partition: malformed
  rig.send_from(2, tagged(0, 10));
  EXPECT_EQ(next_accept(rig.dispatcher), std::make_pair(ReplicaId{2}, paxos::InstanceId{10}));
  EXPECT_EQ(next_accept(dispatcher1), std::make_pair(ReplicaId{2}, paxos::InstanceId{11}));
  EXPECT_FALSE(next_accept(rig.dispatcher, 20 * kMillis).has_value());
  EXPECT_FALSE(next_accept(dispatcher1, 20 * kMillis).has_value());
  io.stop();
}

TEST(ReplicaIo, TcpKeepsOneReceiveThreadPerPeer) {
  Config config;
  config.n = 2;
  config.thread_name_prefix = "tcprcv/";
  constexpr std::uint16_t kBasePort = 21710;
  std::unique_ptr<TcpPeerTransport> links[2];
  {
    std::thread peer([&] {
      links[1] = TcpPeerTransport::connect_all(config, 1, kBasePort, mono_ns() + 5 * kSeconds);
    });
    links[0] = TcpPeerTransport::connect_all(config, 0, kBasePort, mono_ns() + 5 * kSeconds);
    peer.join();
  }
  ASSERT_TRUE(links[0] && links[1]) << "loopback link failed to form";

  SharedState shared(2);
  DispatcherQueue dispatcher(64, "d");
  ReplicaIo io(config, 0, *links[0]);
  io.register_partition(dispatcher, shared);
  io.start();
  for (std::uint64_t seq = 0; seq < 20; ++seq) {
    ASSERT_TRUE(links[1]->send_to(0, accept_frame(1, seq)));
  }
  for (std::uint64_t seq = 0; seq < 20; ++seq) {
    ASSERT_EQ(next_accept(dispatcher), std::make_pair(ReplicaId{1}, seq));
  }
  // A thread registers its name when it starts running; it has by now.
  EXPECT_EQ(threads_named("tcprcv/ReplicaIORcv-"),
            std::vector<std::string>{"tcprcv/ReplicaIORcv-1"});
  io.stop();
  links[1]->shutdown();
}

}  // namespace
}  // namespace mcsmr::smr
