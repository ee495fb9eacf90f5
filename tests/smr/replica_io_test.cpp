// Unit tests for ReplicaIo's send path (§V-B): frames go out on the
// caller's thread when the transport never blocks, through the SendQueue
// to ReplicaIOSnd-p otherwise. A failed inline write and a full SendQueue
// are counted drops that never block the caller, and a transport that may
// block (TCP) or the ZooKeeper-like baseline never writes on the caller's
// thread.
#include "smr/replica_io.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <thread>

#include "baseline/zk_cluster.hpp"
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
    io = std::make_unique<ReplicaIo>(config, 0, transport, dispatcher, shared);
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
  ReplicaIo io(config, 0, *links[0], dispatcher, shared);
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

TEST(ReplicaIo, BaselineFramesAllLeaveOnSenderThreads) {
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
}

}  // namespace
}  // namespace mcsmr::smr
