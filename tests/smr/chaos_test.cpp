// Chaos integration test: the full threaded stack under sustained network
// fault injection (drops, duplication, reorder jitter) — the system-level
// analogue of the engine-level property tests. Asserts liveness under
// faults plus the state-machine safety contract (identical service state
// on every replica once healed), and the lease read path's safety under
// leader kill, asymmetric partition and clock skew (history replayed
// through the linearizability checker).
#include <gtest/gtest.h>

#include "consistency/history.hpp"
#include "consistency/linearizability.hpp"
#include "sim_cluster.hpp"
#include "smr/swarm.hpp"

namespace mcsmr::smr {
namespace {

using testing::SimCluster;

class ChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosTest, LossyLinksConvergeToIdenticalState) {
  Config config;
  config.retransmit_timeout_ns = 100 * kMillis;
  config.catchup_interval_ns = 100 * kMillis;
  net::SimNetParams net_params = testing::fast_net();
  net_params.seed = GetParam();
  SimCluster cluster(config, net_params, [] { return std::make_unique<KvService>(); });
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());

  // Lossy, duplicating, reordering links between every pair of replicas.
  net::FaultPlan plan;
  plan.drop_prob = 0.10;
  plan.dup_prob = 0.10;
  plan.jitter_ns = 3 * kMillis;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      if (a != b) {
        cluster.net().set_fault(cluster.nodes()[static_cast<std::size_t>(a)],
                                cluster.nodes()[static_cast<std::size_t>(b)], plan);
      }
    }
  }

  // Drive writes through the chaos; retries ride out lost batches.
  auto client = cluster.make_client(1);
  int completed = 0;
  for (int i = 0; i < 60; ++i) {
    const std::string key = "k" + std::to_string(i % 10);
    if (client.call(KvService::make_put(key, Bytes{static_cast<std::uint8_t>(i)}))) {
      ++completed;
    }
  }
  EXPECT_GE(completed, 55) << "liveness under 10% loss";

  // Heal and let catch-up close every gap.
  net::FaultPlan clean;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      if (a != b) {
        cluster.net().set_fault(cluster.nodes()[static_cast<std::size_t>(a)],
                                cluster.nodes()[static_cast<std::size_t>(b)], clean);
      }
    }
  }
  const std::uint64_t deadline = mono_ns() + 15 * kSeconds;
  auto snapshots_equal = [&] {
    const Bytes s0 = dynamic_cast<KvService&>(cluster.replica(0).service()).snapshot();
    const Bytes s1 = dynamic_cast<KvService&>(cluster.replica(1).service()).snapshot();
    const Bytes s2 = dynamic_cast<KvService&>(cluster.replica(2).service()).snapshot();
    return s0 == s1 && s1 == s2 && !s0.empty();
  };
  while (mono_ns() < deadline && !snapshots_equal()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_TRUE(snapshots_equal()) << "replicas did not converge to identical state (seed "
                                 << GetParam() << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest, ::testing::Values(11u, 22u, 33u));

TEST(ChaosTest, KillAndRecoverInstallsSnapshotMidTraffic) {
  // A replica dies, misses enough decided instances that its peers have
  // pruned their logs (aggressive snapshots), and is restarted EMPTY
  // while keyed traffic keeps flowing: recovery must go through a
  // snapshot install — the stitched multi-partition manifest in the
  // _partitioned variants — and end byte-identical to the survivors.
  // The CTest matrix (serial / parallel / partitioned) runs this same
  // scenario through every execution shape.
  Config config;
  config.snapshot_interval_instances = 8;
  config.retransmit_timeout_ns = 100 * kMillis;
  config.catchup_interval_ns = 100 * kMillis;
  SimCluster cluster(config, testing::fast_net(),
                     [] { return std::make_unique<KvService>(); });
  cluster.start();
  auto leader = cluster.wait_for_leader();
  ASSERT_TRUE(leader.has_value());
  const ReplicaId victim = (*leader + 1) % 3;  // a follower: traffic keeps flowing

  std::atomic<bool> running{true};
  std::atomic<int> completed{0};
  std::thread driver([&] {
    auto client = cluster.make_client(71);
    for (int i = 0; running.load(std::memory_order_relaxed); ++i) {
      const std::string key = "k" + std::to_string(i % 24);
      if (client.call(KvService::make_put(key, Bytes{static_cast<std::uint8_t>(i)}))) {
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  auto wait_completed = [&](int target) {
    const std::uint64_t deadline = mono_ns() + 20 * kSeconds;
    while (mono_ns() < deadline && completed.load() < target) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return completed.load() >= target;
  };

  ASSERT_TRUE(wait_completed(40)) << "no progress before the crash";
  cluster.crash(victim);
  // Far enough past several snapshot cuts that catch-up cannot be served
  // from the survivors' pruned logs alone.
  ASSERT_TRUE(wait_completed(completed.load() + 200)) << "progress stalled after the crash";
  cluster.restart(victim);

  ASSERT_TRUE(wait_completed(completed.load() + 100)) << "progress stalled after recovery";
  // Keep client traffic flowing until the recovered replica itself has
  // decided or executed something: on a slow (or oversubscribed
  // sanitizer-CI) host the +100 window above can be served entirely by
  // the survivors before the victim rejoins, which would fail the
  // made-no-progress assertion below spuriously.
  const std::uint64_t victim_deadline = mono_ns() + 20 * kSeconds;
  auto victim_progress = [&] {
    return cluster.replica(victim).executed_requests() +
               cluster.replica(victim).decided_instances() >
           0;
  };
  while (mono_ns() < victim_deadline && !victim_progress()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  running.store(false);
  driver.join();

  // The recovered replica must converge to the survivors' stitched state
  // (identical across every partition count and executor).
  const std::uint64_t deadline = mono_ns() + 20 * kSeconds;
  auto converged = [&] {
    const Bytes m0 = cluster.replica(0).state_manifest();
    return m0 == cluster.replica(1).state_manifest() &&
           m0 == cluster.replica(2).state_manifest() && !m0.empty();
  };
  while (mono_ns() < deadline && !converged()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(converged()) << "recovered replica did not converge";
  EXPECT_GT(cluster.replica(victim).executed_requests() +
                cluster.replica(victim).decided_instances(),
            0u)
      << "recovered replica made no progress at all";
}

TEST(ChaosTest, SegmentStorageKillAndRestartRecoversMidTraffic) {
  // The durable-log analogue of the kill-and-recover scenario: the victim
  // restarts from its own segment files (SimCluster::restart reopens the
  // same log directory) instead of returning empty, then closes whatever
  // gap remains via normal catch-up / snapshot install. Forces segment
  // storage regardless of the matrix variant's log_storage.
  Config config;
  config.apply_overrides({{"log_storage", "segment"}});
  config.snapshot_interval_instances = 8;
  config.retransmit_timeout_ns = 100 * kMillis;
  config.catchup_interval_ns = 100 * kMillis;
  SimCluster cluster(config, testing::fast_net(),
                     [] { return std::make_unique<KvService>(); });
  cluster.start();
  auto leader = cluster.wait_for_leader();
  ASSERT_TRUE(leader.has_value());
  const ReplicaId victim = (*leader + 1) % 3;  // a follower: traffic keeps flowing

  std::atomic<bool> running{true};
  std::atomic<int> completed{0};
  std::thread driver([&] {
    auto client = cluster.make_client(83);
    for (int i = 0; running.load(std::memory_order_relaxed); ++i) {
      const std::string key = "k" + std::to_string(i % 24);
      if (client.call(KvService::make_put(key, Bytes{static_cast<std::uint8_t>(i)}))) {
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  auto wait_completed = [&](int target) {
    const std::uint64_t deadline = mono_ns() + 20 * kSeconds;
    while (mono_ns() < deadline && completed.load() < target) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return completed.load() >= target;
  };

  ASSERT_TRUE(wait_completed(40)) << "no progress before the crash";
  cluster.crash(victim);
  ASSERT_TRUE(wait_completed(completed.load() + 200)) << "progress stalled after the crash";
  cluster.restart(victim);

  ASSERT_TRUE(wait_completed(completed.load() + 100)) << "progress stalled after recovery";
  running.store(false);
  driver.join();

  const std::uint64_t deadline = mono_ns() + 20 * kSeconds;
  auto converged = [&] {
    const Bytes m0 = cluster.replica(0).state_manifest();
    return m0 == cluster.replica(1).state_manifest() &&
           m0 == cluster.replica(2).state_manifest() && !m0.empty();
  };
  while (mono_ns() < deadline && !converged()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(converged()) << "recovered replica did not converge";
}

TEST(ChaosTest, SegmentStorageFullClusterRestartReplaysIdenticalState) {
  // Crash ALL replicas, restart them, and drive NO new traffic: the only
  // possible source of the service state after restart is the durable log
  // (with memory storage a full-cluster crash loses everything). Snapshots
  // stay disabled so recovery is pure record-by-record replay, and the
  // replayed state must be byte-identical to the pre-crash manifest.
  Config config;
  config.apply_overrides({{"log_storage", "segment"}});
  config.retransmit_timeout_ns = 100 * kMillis;
  config.catchup_interval_ns = 100 * kMillis;
  SimCluster cluster(config, testing::fast_net(),
                     [] { return std::make_unique<KvService>(); });
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());

  auto client = cluster.make_client(97);
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    const std::string key = "k" + std::to_string(i % 16);
    if (client.call(KvService::make_put(key, Bytes{static_cast<std::uint8_t>(i)}))) {
      ++completed;
    }
  }
  ASSERT_GE(completed, 45) << "could not build pre-crash state";

  // Let the cluster settle to one identical manifest before the crash.
  const std::uint64_t settle_deadline = mono_ns() + 15 * kSeconds;
  auto manifests_equal = [&] {
    const Bytes m0 = cluster.replica(0).state_manifest();
    return m0 == cluster.replica(1).state_manifest() &&
           m0 == cluster.replica(2).state_manifest() && !m0.empty();
  };
  while (mono_ns() < settle_deadline && !manifests_equal()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(manifests_equal()) << "cluster did not converge before the crash";
  const Bytes before = cluster.replica(0).state_manifest();

  for (ReplicaId id = 0; id < 3; ++id) cluster.crash(id);
  for (ReplicaId id = 0; id < 3; ++id) cluster.restart(id);
  ASSERT_TRUE(cluster.wait_for_leader().has_value()) << "no leader after full restart";

  // No client traffic from here on: replay must resurrect the state.
  const std::uint64_t deadline = mono_ns() + 20 * kSeconds;
  auto replayed = [&] {
    return cluster.replica(0).state_manifest() == before &&
           cluster.replica(1).state_manifest() == before &&
           cluster.replica(2).state_manifest() == before;
  };
  while (mono_ns() < deadline && !replayed()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(replayed())
      << "replayed state differs from the pre-crash manifest (durability hole)";
}

TEST(ChaosTest, SwarmSurvivesLeaderChangeMidLoad) {
  Config config;
  config.fd_suspect_timeout_ns = 300 * kMillis;
  SimCluster cluster(config);
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());

  ClientSwarm::Params params;
  params.workers = 2;
  params.clients_per_worker = 30;
  params.io_threads = config.client_io_threads;
  params.retry_timeout_ns = 500 * kMillis;
  ClientSwarm swarm(cluster.net(), cluster.nodes(), params);
  swarm.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const std::uint64_t before_crash = swarm.completed();
  EXPECT_GT(before_crash, 0u);

  cluster.crash(0);  // leader dies under load

  // The swarm must make substantial progress again after failover.
  const std::uint64_t deadline = mono_ns() + 15 * kSeconds;
  while (mono_ns() < deadline && swarm.completed() < before_crash + 500) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  const std::uint64_t after = swarm.completed();
  swarm.stop();
  EXPECT_GE(after, before_crash + 500) << "throughput did not recover after failover";
}

TEST(ChaosTest, LeaderKillDefersFailoverUntilGrantsExpire) {
  // The lease's other half: after the leader dies mid-lease, NO successor
  // may be elected until the grants the followers extended have provably
  // expired — otherwise the (possibly still-running) old leader could
  // serve local reads while the successor commits writes. The suspect
  // timeout is set well below the lease so a premature election would be
  // visible as a fast failover.
  Config config;
  config.read_path = ReadPath::kLease;
  config.fd_suspect_timeout_ns = 100 * kMillis;
  SimCluster cluster(config);
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());
  EXPECT_TRUE(cluster.replica(0).is_leader());

  // Let a few heartbeat rounds extend fresh grants, then kill the leader.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const std::uint64_t crashed_at = mono_ns();
  cluster.crash(0);

  // Survivors suspect at ~100 ms but must sit on their hands until their
  // grants lapse (lease_duration past the last heartbeat receipt). The
  // floor is conservative: the true bound is lease_duration minus one
  // heartbeat interval (~450 ms with the defaults).
  std::optional<ReplicaId> successor;
  const std::uint64_t deadline = crashed_at + 10 * kSeconds;
  while (mono_ns() < deadline && !successor.has_value()) {
    for (ReplicaId id = 1; id < static_cast<ReplicaId>(cluster.config().n); ++id) {
      if (cluster.replica(id).is_leader()) successor = id;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::uint64_t elected_at = mono_ns();
  ASSERT_TRUE(successor.has_value()) << "no successor elected after leader kill";
  EXPECT_GE(elected_at - crashed_at, 300 * kMillis)
      << "successor elected inside the old lease window (stale-read hazard)";
}

TEST(ChaosTest, AsymmetricPartitionCannotUsurpLeaseHolder) {
  // The hole this guards: an isolated follower whose grant expired starts
  // campaigning; the OTHER follower still refuses (its grant is live), so
  // the candidate's only path to a quorum is the leader's own vote. A
  // leader serving reads on a live lease must refuse — otherwise the
  // candidate commits writes inside the lease and the leader's local
  // reads go stale. Cut only leader->follower2, leave the reverse
  // direction open so the candidate's Prepares DO reach the leader.
  Config config;
  config.read_path = ReadPath::kLease;
  config.fd_suspect_timeout_ns = 150 * kMillis;
  SimCluster cluster(config, testing::fast_net(),
                     [] { return std::make_unique<KvService>(); });
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());
  ASSERT_TRUE(cluster.replica(0).is_leader());
  const std::uint64_t view_before = cluster.replica(0).view();

  consistency::HistoryRecorder recorder;
  ClientSwarm::Params params;
  params.workers = 2;
  params.clients_per_worker = 6;
  params.io_threads = cluster.config().client_io_threads;
  params.workload = ClientSwarm::Workload::kKv;
  params.kv_keys = 6;
  params.read_pct = 50;
  params.observer = &recorder;
  ClientSwarm swarm(cluster.net(), cluster.nodes(), params);
  swarm.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  net::FaultPlan cut;
  cut.drop_prob = 1.0;
  cluster.net().set_fault(cluster.nodes()[0], cluster.nodes()[2], cut);

  // Replica 2 misses heartbeats, suspects, waits out its own grant, then
  // campaigns — and must be refused by both the granted follower and the
  // leaseholder for as long as the lease keeps refreshing.
  std::this_thread::sleep_for(std::chrono::milliseconds(2000));
  const std::uint64_t before_quiesce = swarm.completed();
  swarm.stop();

  EXPECT_TRUE(cluster.replica(0).is_leader())
      << "leaseholder lost leadership to a candidate it should have refused";
  EXPECT_EQ(cluster.replica(0).view(), view_before);
  EXPECT_GT(before_quiesce, 200u) << "cluster stopped serving under the partition";
  EXPECT_GT(cluster.replica(0).shared().lease_reads.load(std::memory_order_relaxed), 0u);
  const auto verdict = consistency::check_history(recorder.by_key());
  EXPECT_TRUE(verdict.linearizable)
      << "stale read during asymmetric partition at key " << verdict.offending_key;
  EXPECT_FALSE(verdict.exhausted);
}

TEST(ChaosTest, LeaseReadsStayLinearizableAcrossFailover) {
  // End-to-end stale-read probe across an actual failover: a mixed
  // GET/PUT swarm runs lease reads against the leader, the leader is
  // killed mid-lease, clients retry onto the successor, and the FULL
  // history — spanning reads served by the old leader, the outage, and
  // writes committed by the new one — must linearize. If any election-
  // safety clause let the successor commit inside the old lease while a
  // stale local read slipped out, the checker would reject the history.
  Config config;
  config.read_path = ReadPath::kLease;
  config.fd_suspect_timeout_ns = 150 * kMillis;
  SimCluster cluster(config, testing::fast_net(),
                     [] { return std::make_unique<KvService>(); });
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());

  consistency::HistoryRecorder recorder;
  ClientSwarm::Params params;
  params.workers = 2;
  params.clients_per_worker = 8;
  params.io_threads = cluster.config().client_io_threads;
  params.retry_timeout_ns = 500 * kMillis;
  params.workload = ClientSwarm::Workload::kKv;
  params.kv_keys = 8;
  params.read_pct = 50;
  params.observer = &recorder;
  ClientSwarm swarm(cluster.net(), cluster.nodes(), params);
  swarm.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const std::uint64_t lease_reads_before_crash =
      cluster.replica(0).shared().lease_reads.load(std::memory_order_relaxed);
  EXPECT_GT(lease_reads_before_crash, 0u) << "lease path never engaged before the kill";
  const std::uint64_t before_crash = swarm.completed();

  cluster.crash(0);  // leaseholder dies under load

  // The swarm must recover (election waits out the grants first) and make
  // substantial progress against the successor.
  const std::uint64_t deadline = mono_ns() + 15 * kSeconds;
  while (mono_ns() < deadline && swarm.completed() < before_crash + 500) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const std::uint64_t after = swarm.completed();
  swarm.stop();
  EXPECT_GE(after, before_crash + 500) << "throughput did not recover after failover";

  const auto verdict = consistency::check_history(recorder.by_key());
  EXPECT_TRUE(verdict.linearizable)
      << "stale read across failover at key " << verdict.offending_key;
  EXPECT_FALSE(verdict.exhausted);
}

TEST(ChaosTest, ClockSkewWithinMarginStaysLinearizable) {
  // Clock-fault injection: one follower runs 3% fast with a +50 ms offset,
  // the other 1% slow. Offsets cancel in the grant protocol (each side
  // uses only its own clock; the leader bounds grants via its echoed
  // stamp) and 3% rate drift over a 500 ms lease is 15 ms — inside the
  // 20 ms drift margin — so a fast clock must never surface as a stale
  // read; it may only shorten the usable lease.
  Config config;
  config.read_path = ReadPath::kLease;
  SimCluster cluster(
      config, testing::fast_net(), [] { return std::make_unique<KvService>(); },
      [](ReplicaId id, Config& node) {
        if (id == 1) {
          node.clock_rate_ppm = 30'000;
          node.clock_offset_ns = 50 * kMillis;
        }
        if (id == 2) node.clock_rate_ppm = -10'000;
      });
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());

  consistency::HistoryRecorder recorder;
  ClientSwarm::Params params;
  params.workers = 2;
  params.clients_per_worker = 8;
  params.io_threads = cluster.config().client_io_threads;
  params.workload = ClientSwarm::Workload::kKv;
  params.kv_keys = 8;
  params.read_pct = 50;
  params.observer = &recorder;
  ClientSwarm swarm(cluster.net(), cluster.nodes(), params);
  swarm.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  swarm.stop();

  EXPECT_GT(swarm.completed(), 200u);
  EXPECT_GT(cluster.replica(0).shared().lease_reads.load(std::memory_order_relaxed), 0u)
      << "lease path never engaged under in-margin skew";
  const auto verdict = consistency::check_history(recorder.by_key());
  EXPECT_TRUE(verdict.linearizable)
      << "clock skew surfaced as a stale read at key " << verdict.offending_key;
  EXPECT_FALSE(verdict.exhausted);
}

}  // namespace
}  // namespace mcsmr::smr
