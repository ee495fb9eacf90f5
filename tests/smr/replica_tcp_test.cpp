// End-to-end tests over real TCP on loopback: replicas with epoll ClientIO
// pools and blocking peer sockets, TcpClient callers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "common/clock.hpp"
#include "sim_cluster.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

namespace mcsmr::smr {
namespace {

struct TcpCluster {
  // The CTest matrix variables (see sim_cluster.hpp) apply here too, so
  // the mutex-backed reply queues and the partitioned replica are covered
  // over real sockets.
  explicit TcpCluster(Config config, std::uint16_t peer_base_port)
      : config_(testing::apply_matrix_env(config)) {
    std::vector<std::thread> builders;
    replicas_.resize(static_cast<std::size_t>(config.n));
    for (int id = 0; id < config.n; ++id) {
      builders.emplace_back([this, id, peer_base_port] {
        // Factory form so the partitioned matrix variant can shard
        // the service (the unique_ptr convenience requires 1 partition).
        replicas_[static_cast<std::size_t>(id)] = Replica::create_tcp(
            config_, static_cast<ReplicaId>(id), peer_base_port, /*client_port=*/0,
            [] { return std::make_unique<KvService>(); }, mono_ns() + 10 * kSeconds);
      });
    }
    for (auto& builder : builders) builder.join();
  }

  bool valid() const {
    for (const auto& replica : replicas_) {
      if (!replica) return false;
    }
    return true;
  }

  void start() {
    for (auto& replica : replicas_) replica->start();
  }
  void stop() {
    for (auto& replica : replicas_) {
      if (replica) replica->stop();
    }
  }

  std::vector<std::uint16_t> client_ports() const {
    std::vector<std::uint16_t> ports;
    for (const auto& replica : replicas_) ports.push_back(replica->client_port());
    return ports;
  }

  std::optional<ReplicaId> wait_for_leader(std::uint64_t timeout_ns = 5 * kSeconds) {
    const std::uint64_t deadline = mono_ns() + timeout_ns;
    while (mono_ns() < deadline) {
      for (const auto& replica : replicas_) {
        if (replica->is_leader()) return replica->id();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return std::nullopt;
  }

  Config config_;
  std::vector<std::unique_ptr<Replica>> replicas_;
};

// Distinct base ports per test to avoid bind collisions on reruns.
TEST(ReplicaTcp, ClusterFormsAndServes) {
  TcpCluster cluster(Config{}, 21300);
  ASSERT_TRUE(cluster.valid()) << "peer mesh failed to form";
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());

  TcpClient client(cluster.client_ports(), 1);
  auto put = client.call(KvService::make_put("k", Bytes{7}));
  ASSERT_TRUE(put.has_value());
  auto get = client.call(KvService::make_get("k"));
  ASSERT_TRUE(get.has_value());
  EXPECT_EQ(*KvService::parse_reply(*get), Bytes{7});
  cluster.stop();
}

TEST(ReplicaTcp, ManySequentialRequests) {
  TcpCluster cluster(Config{}, 21350);
  ASSERT_TRUE(cluster.valid());
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());

  TcpClient client(cluster.client_ports(), 2);
  for (int i = 0; i < 100; ++i) {
    auto reply = client.call(KvService::make_put("key", Bytes{static_cast<std::uint8_t>(i)}));
    ASSERT_TRUE(reply.has_value()) << "request " << i;
  }
  auto final = client.call(KvService::make_get("key"));
  ASSERT_TRUE(final.has_value());
  EXPECT_EQ(*KvService::parse_reply(*final), Bytes{99});
  cluster.stop();
}

TEST(ReplicaTcp, ConcurrentClients) {
  TcpCluster cluster(Config{}, 21400);
  ASSERT_TRUE(cluster.valid());
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());

  constexpr int kClients = 8, kCallsEach = 30;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TcpClient client(cluster.client_ports(), static_cast<paxos::ClientId>(100 + c));
      for (int i = 0; i < kCallsEach; ++i) {
        auto reply = client.call(
            KvService::make_put("c" + std::to_string(c), Bytes{static_cast<std::uint8_t>(i)}));
        if (reply.has_value()) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * kCallsEach);

  // All replicas converge on the same KV state (summed over shards — the
  // partitioned matrix variant spreads the keys across pipelines).
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  for (int id = 0; id < 3; ++id) {
    auto& replica = *cluster.replicas_[static_cast<std::size_t>(id)];
    std::size_t total = 0;
    for (std::uint32_t p = 0; p < replica.num_partitions(); ++p) {
      total += dynamic_cast<KvService&>(replica.service(p)).size();
    }
    EXPECT_EQ(total, static_cast<std::size_t>(kClients)) << "replica " << id;
  }
  cluster.stop();
}

TEST(ReplicaTcp, RedirectFromFollower) {
  TcpCluster cluster(Config{}, 21450);
  ASSERT_TRUE(cluster.valid());
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());

  // Client pointed at a follower first: redirect must route it.
  TcpClient client(cluster.client_ports(), 9, ClientParams{}, /*initial_leader=*/1);
  auto reply = client.call(KvService::make_put("x", Bytes{1}));
  EXPECT_TRUE(reply.has_value());
  cluster.stop();
}

TEST(ReplicaTcp, SingleReplicaClusterWorks) {
  Config config;
  config.n = 1;
  TcpCluster cluster(config, 21500);
  ASSERT_TRUE(cluster.valid());
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());
  TcpClient client(cluster.client_ports(), 3);
  auto reply = client.call(KvService::make_put("solo", Bytes{1}));
  EXPECT_TRUE(reply.has_value());
  cluster.stop();
}

}  // namespace
}  // namespace mcsmr::smr
