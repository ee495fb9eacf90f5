// End-to-end integration tests of the full threading architecture over
// SimNet: real ClientIO/Batcher/Protocol/ReplicaIO/ServiceManager threads,
// real queues and flow control — only the network is modeled.
#include <gtest/gtest.h>

#include "consistency/linearizability.hpp"
#include "sim_cluster.hpp"
#include "smr/swarm.hpp"

namespace mcsmr::smr {
namespace {

using testing::SimCluster;

TEST(ReplicaSim, LeaderElectedAtStartup) {
  SimCluster cluster(Config{});
  cluster.start();
  auto leader = cluster.wait_for_leader();
  ASSERT_TRUE(leader.has_value());
  EXPECT_EQ(*leader, 0u) << "replica 0 leads view 0";
}

TEST(ReplicaSim, SingleClientCall) {
  SimCluster cluster(Config{});
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());
  auto client = cluster.make_client(1);
  auto reply = client.call(Bytes(128, 0xAB));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->size(), 8u) << "null service answers 8 bytes";
}

TEST(ReplicaSim, SequentialCallsAllSucceed) {
  SimCluster cluster(Config{});
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());
  auto client = cluster.make_client(7);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.call(Bytes(64, static_cast<std::uint8_t>(i))).has_value())
        << "call " << i;
  }
  // All replicas eventually execute all requests.
  const std::uint64_t deadline = mono_ns() + 5 * kSeconds;
  while (mono_ns() < deadline) {
    bool all = true;
    for (ReplicaId id = 0; id < 3; ++id) {
      all = all && cluster.replica(id).executed_requests() >= 50;
    }
    if (all) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (ReplicaId id = 0; id < 3; ++id) {
    EXPECT_GE(cluster.replica(id).executed_requests(), 50u) << "replica " << id;
  }
}

TEST(ReplicaSim, FollowerRedirectsToLeader) {
  SimCluster cluster(Config{});
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());
  // Client whose first guess is a follower: must still succeed via redirect.
  SimClient follower_first(cluster.net(), cluster.nodes(), 99,
                           cluster.config().client_io_threads, ClientParams{},
                           /*initial_leader=*/1);
  auto reply = follower_first.call(Bytes{1, 2, 3});
  ASSERT_TRUE(reply.has_value());
  EXPECT_GT(cluster.replica(0).shared().redirected_requests.load() +
                cluster.replica(1).shared().redirected_requests.load() +
                cluster.replica(2).shared().redirected_requests.load(),
            0u);
}

TEST(ReplicaSim, DuplicateRequestServedFromReplyCache) {
  SimCluster cluster(Config{});
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());
  auto client = cluster.make_client(11);
  ASSERT_TRUE(client.call(Bytes{1}).has_value());

  // Re-send the same (client, seq) directly: the reply must come from the
  // cache without a second execution.
  const std::uint64_t executed_before = cluster.replica(0).executed_requests();
  ClientRequestFrame dup{11, 1, client.node(), Bytes{1}};
  cluster.net().send(client.node(), cluster.nodes()[0],
                     kClientIoChannelBase + static_cast<net::Channel>(
                                                11 % static_cast<std::uint64_t>(
                                                         cluster.config().client_io_threads)),
                     encode_client_request(dup));
  auto reply = cluster.net().recv_for(client.node(), kClientReplyChannel, 2 * kSeconds);
  ASSERT_TRUE(reply.has_value());
  auto decoded = decode_client_frame(reply->payload);
  EXPECT_EQ(decoded.reply.status, ReplyStatus::kOk);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(cluster.replica(0).executed_requests(), executed_before)
      << "duplicate must not execute again";
  EXPECT_GT(cluster.replica(0).shared().cached_replies.load(), 0u);
}

TEST(ReplicaSim, KvServiceEndToEnd) {
  SimCluster cluster(Config{}, testing::fast_net(),
                     [] { return std::make_unique<KvService>(); });
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());
  auto client = cluster.make_client(5);

  auto put = client.call(KvService::make_put("greeting", as_span("hello").size() > 0
                                                             ? Bytes{'h', 'e', 'l', 'l', 'o'}
                                                             : Bytes{}));
  ASSERT_TRUE(put.has_value());
  auto get = client.call(KvService::make_get("greeting"));
  ASSERT_TRUE(get.has_value());
  EXPECT_EQ(*KvService::parse_reply(*get), (Bytes{'h', 'e', 'l', 'l', 'o'}));
}

TEST(ReplicaSim, LeaderCrashFailover) {
  Config config;
  config.fd_suspect_timeout_ns = 300 * kMillis;
  SimCluster cluster(config);
  cluster.start();
  ASSERT_EQ(cluster.wait_for_leader().value_or(99), 0u);

  auto client = cluster.make_client(21);
  ASSERT_TRUE(client.call(Bytes{1}).has_value());

  cluster.crash(0);  // kill the leader

  // A new leader emerges and clients keep getting service.
  const std::uint64_t deadline = mono_ns() + 10 * kSeconds;
  bool recovered = false;
  while (mono_ns() < deadline && !recovered) {
    recovered = cluster.replica(1).is_leader() || cluster.replica(2).is_leader();
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(recovered) << "no replica took over leadership";

  SimClient client2(cluster.net(), cluster.nodes(), 22,
                    cluster.config().client_io_threads, ClientParams{},
                    /*initial_leader=*/1);
  auto reply = client2.call(Bytes{9});
  EXPECT_TRUE(reply.has_value()) << "service unavailable after failover";
}

TEST(ReplicaSim, PartitionedFollowerCatchesUp) {
  SimCluster cluster(Config{});
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());

  // Cut replica 2 off from both peers.
  cluster.net().set_partition(cluster.nodes()[2], cluster.nodes()[0], true);
  cluster.net().set_partition(cluster.nodes()[2], cluster.nodes()[1], true);

  auto client = cluster.make_client(31);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(client.call(Bytes{static_cast<std::uint8_t>(i)}).has_value());
  }
  EXPECT_EQ(cluster.replica(2).executed_requests(), 0u);

  // Heal; catch-up must close the gap.
  cluster.net().set_partition(cluster.nodes()[2], cluster.nodes()[0], false);
  cluster.net().set_partition(cluster.nodes()[2], cluster.nodes()[1], false);

  const std::uint64_t deadline = mono_ns() + 10 * kSeconds;
  while (mono_ns() < deadline && cluster.replica(2).executed_requests() < 30) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(cluster.replica(2).executed_requests(), 30u) << "catch-up failed";
}

TEST(ReplicaSim, SnapshotStateTransferToDarkReplica) {
  Config config;
  config.snapshot_interval_instances = 4;  // snapshot aggressively
  SimCluster cluster(config, testing::fast_net(),
                     [] { return std::make_unique<KvService>(); });
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());

  cluster.net().set_partition(cluster.nodes()[2], cluster.nodes()[0], true);
  cluster.net().set_partition(cluster.nodes()[2], cluster.nodes()[1], true);

  auto client = cluster.make_client(41);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        client.call(KvService::make_put("k" + std::to_string(i), Bytes{1})).has_value());
  }

  cluster.net().set_partition(cluster.nodes()[2], cluster.nodes()[0], false);
  cluster.net().set_partition(cluster.nodes()[2], cluster.nodes()[1], false);

  // Replica 2 must converge (via snapshot install and/or catch-up). The
  // keys are sharded across partitions, so count every shard.
  auto total_keys = [&] {
    std::size_t total = 0;
    for (std::uint32_t p = 0; p < cluster.replica(2).num_partitions(); ++p) {
      total += dynamic_cast<KvService&>(cluster.replica(2).service(p)).size();
    }
    return total;
  };
  // Generous deadline: on an oversubscribed sanitizer CI runner the
  // catch-up/snapshot exchange can take many times its uncontended cost.
  const std::uint64_t deadline = mono_ns() + 30 * kSeconds;
  while (mono_ns() < deadline && total_keys() < 60) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GE(total_keys(), 60u) << "state transfer did not converge";
}

TEST(ReplicaSim, SwarmDrivesThroughput) {
  SimCluster cluster(Config{});
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());

  ClientSwarm::Params params;
  params.workers = 2;
  params.clients_per_worker = 25;
  params.io_threads = cluster.config().client_io_threads;
  ClientSwarm swarm(cluster.net(), cluster.nodes(), params);
  swarm.start();
  std::this_thread::sleep_for(std::chrono::seconds(2));
  swarm.stop();

  EXPECT_GT(swarm.completed(), 500u) << "swarm throughput unreasonably low";
  auto latency = swarm.latency_histogram();
  EXPECT_GT(latency.count(), 0u);
  EXPECT_GT(latency.percentile(50), 0u);
}

TEST(ReplicaSim, FlowControlBoundsQueues) {
  // Tiny queues + heavy offered load: backpressure must keep every queue
  // within its bound while the system keeps making progress (§V-E).
  Config config;
  config.request_queue_cap = 32;
  config.proposal_queue_cap = 4;
  config.window_size = 2;
  SimCluster cluster(config);
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());

  ClientSwarm::Params params;
  params.workers = 2;
  params.clients_per_worker = 100;  // >> pipeline capacity
  params.io_threads = config.client_io_threads;
  ClientSwarm swarm(cluster.net(), cluster.nodes(), params);
  swarm.start();

  std::uint64_t max_request_queue = 0, max_proposal_queue = 0;
  const std::uint64_t until = mono_ns() + 2 * kSeconds;
  while (mono_ns() < until) {
    max_request_queue = std::max<std::uint64_t>(max_request_queue,
                                                cluster.replica(0).request_queue_size());
    max_proposal_queue = std::max<std::uint64_t>(max_proposal_queue,
                                                 cluster.replica(0).proposal_queue_size());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  swarm.stop();

  // The bound is per pipeline; the accessors aggregate over partitions.
  const std::uint64_t partitions = cluster.config().num_partitions;
  EXPECT_LE(max_request_queue, config.request_queue_cap * partitions);
  EXPECT_LE(max_proposal_queue, config.proposal_queue_cap * partitions);
  EXPECT_GT(swarm.completed(), 100u) << "system starved under backpressure";
}

TEST(ReplicaSim, FiveReplicaCluster) {
  Config config;
  config.n = 5;
  SimCluster cluster(config);
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());
  auto client = cluster.make_client(51);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.call(Bytes{static_cast<std::uint8_t>(i)}).has_value());
  }
  // Majority (>=3) must have executed; stragglers catch up async.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  int executed_20 = 0;
  for (ReplicaId id = 0; id < 5; ++id) {
    if (cluster.replica(id).executed_requests() >= 20) ++executed_20;
  }
  EXPECT_GE(executed_20, 3);
}

TEST(ReplicaSim, MatrixEnvPairsReachConfig) {
  // Every pair in MCSMR_CONFIG lands in the cluster's Config, on top of
  // whatever the matrix variant already set.
  testing::ScopedMatrixEnv env("window_size=7 batch_max_bytes=999");
  SimCluster cluster(Config{});
  EXPECT_EQ(cluster.config().window_size, 7u);
  EXPECT_EQ(cluster.config().batch_max_bytes, 999u);
}

TEST(ReplicaSim, ReplyPathBatchesWakeups) {
  // The reply path coalesces ServiceManager->ClientIO hand-offs: after a
  // burst of traffic, wake-ups must not exceed replies, and the replies
  // must all have arrived (no reply stranded in a reply queue).
  SimCluster cluster(Config{});
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());
  auto client = cluster.make_client(71);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(client.call(Bytes{static_cast<std::uint8_t>(i)}).has_value()) << i;
  }
  const std::uint64_t wakeups = cluster.replica(0).shared().reply_wakeups.load();
  const std::uint64_t executed = cluster.replica(0).executed_requests();
  EXPECT_GT(wakeups, 0u) << "the reply path should signal the ClientIO threads";
  EXPECT_LE(wakeups, executed) << "more wake-ups than replies";
  cluster.stop();
}

TEST(ReplicaSim, FollowersSkipReplyHandOffForUnknownClients) {
  // Followers execute every request too, but the client only talks to
  // the leader: a follower has no route to it and must drop the reply
  // before the ClientIO hand-off, not wake an IO thread to drop it there.
  SimCluster cluster(Config{});
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());
  auto client = cluster.make_client(91);
  constexpr std::uint64_t kCalls = 40;
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(client.call(Bytes{static_cast<std::uint8_t>(i)}).has_value()) << i;
  }
  const std::uint64_t deadline = mono_ns() + 5 * kSeconds;
  while (mono_ns() < deadline && (cluster.replica(1).executed_requests() < kCalls ||
                                  cluster.replica(2).executed_requests() < kCalls)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(cluster.replica(0).shared().reply_wakeups.load(), 0u);
  for (ReplicaId id = 1; id < 3; ++id) {
    ASSERT_GE(cluster.replica(id).executed_requests(), kCalls) << "replica " << id;
    EXPECT_EQ(cluster.replica(id).shared().reply_wakeups.load(), 0u) << "replica " << id;
    EXPECT_EQ(cluster.replica(id).shared().dropped_replies.load(), 0u) << "replica " << id;
  }
  cluster.stop();
}

TEST(ReplicaSim, KvHistoryIsLinearizable) {
  // A mixed PUT/GET swarm with every operation logged, then replayed
  // through the Wing–Gong checker. Rides the whole CTest matrix — queue
  // impls, executors, partitions, storage AND read_path=lease, where the
  // GETs are served locally off the leader lease and this verdict is the
  // proof they stay linearizable.
  SimCluster cluster(Config{}, testing::fast_net(),
                     [] { return std::make_unique<KvService>(); });
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());

  consistency::HistoryRecorder recorder;
  ClientSwarm::Params params;
  params.workers = 2;
  params.clients_per_worker = 8;
  params.io_threads = cluster.config().client_io_threads;
  params.workload = ClientSwarm::Workload::kKv;
  params.kv_keys = 8;   // few keys: real read/write interleaving per key
  params.read_pct = 50;
  params.observer = &recorder;
  ClientSwarm swarm(cluster.net(), cluster.nodes(), params);
  swarm.start();
  std::this_thread::sleep_for(std::chrono::seconds(2));
  swarm.stop();

  EXPECT_GT(swarm.completed(), 200u);
  if (cluster.config().read_path == ReadPath::kLease) {
    // The fast path must actually engage under a stable leader.
    EXPECT_GT(cluster.replica(*cluster.wait_for_leader())
                  .shared()
                  .lease_reads.load(std::memory_order_relaxed),
              0u)
        << "lease mode never served a local read";
  }
  const auto verdict = consistency::check_history(recorder.by_key());
  EXPECT_TRUE(verdict.linearizable) << "history not linearizable at key "
                                    << verdict.offending_key;
  EXPECT_FALSE(verdict.exhausted) << "checker budget exhausted at key "
                                  << verdict.offending_key;
}

TEST(ReplicaSim, NoLockRuleHoldsUnderLoad) {
  // The architecture's claim (§VI): thread blocked time stays a small
  // fraction of run time even at peak throughput. Generous bound to stay
  // robust on a contended 2-core CI host.
  metrics::ThreadRegistry::instance().clear();
  SimCluster cluster(Config{});
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());

  ClientSwarm::Params params;
  params.workers = 2;
  params.clients_per_worker = 50;
  params.io_threads = cluster.config().client_io_threads;
  ClientSwarm swarm(cluster.net(), cluster.nodes(), params);
  swarm.start();
  metrics::ThreadRegistry::instance().reset_epoch();
  const std::uint64_t t0 = mono_ns();
  std::this_thread::sleep_for(std::chrono::seconds(2));
  const double run_ns = static_cast<double>(mono_ns() - t0);
  auto snaps = metrics::ThreadRegistry::instance().snapshot_all();
  swarm.stop();

  double worst_blocked_frac = 0;
  for (const auto& snap : snaps) {
    if (!snap.alive || snap.wall_ns == 0) continue;
    worst_blocked_frac = std::max(worst_blocked_frac, snap.blocked_frac());
  }
  (void)run_ns;
  EXPECT_LT(worst_blocked_frac, 0.5)
      << "some thread spent most of its time blocked on locks";
}

}  // namespace
}  // namespace mcsmr::smr
