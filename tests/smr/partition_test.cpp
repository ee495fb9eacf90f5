// Partitioned-pipeline tests: the PartitionRouter contract, the
// CrossPartitionBarrier rendezvous semantics, the manifest codec, and —
// at cluster level — the determinism contract: the same client workload
// yields the same replicated state on every replica and for every
// (partitions, executor) configuration, with num_partitions = 1 exactly
// reproducing the single-pipeline replica.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

#include "sim_cluster.hpp"
#include "smr/partition.hpp"

namespace mcsmr::smr {
namespace {

using testing::SimCluster;

std::uint64_t hash_key(const std::string& key) { return std::hash<std::string>{}(key); }

// --- PartitionRouter ---------------------------------------------------------

TEST(PartitionRouter, SinglePipelineRoutesEverythingToZero) {
  KvService kv;
  PartitionRouter router(kv, 1);
  const auto route = router.route(KvService::make_put("some-key", Bytes{1}), 42);
  EXPECT_FALSE(route.global);
  EXPECT_EQ(route.partition, 0u);
}

TEST(PartitionRouter, KeyedRequestsAreStickyAndMatchPlacement) {
  KvService kv;
  PartitionRouter router(kv, 4);
  for (int i = 0; i < 32; ++i) {
    const std::string key = "k" + std::to_string(i);
    const auto put = router.route(KvService::make_put(key, Bytes{1}), 7);
    const auto get = router.route(KvService::make_get(key), 99);
    ASSERT_FALSE(put.global);
    EXPECT_EQ(put.partition, partition_of_key(hash_key(key), 4))
        << "routing must agree with the shard placement function";
    EXPECT_EQ(put.partition, get.partition) << "reads and writes of one key must co-route";
  }
}

TEST(PartitionRouter, KeylessConflictFreeSpreadsByClientButStaysSticky) {
  NullService null;
  PartitionRouter router(null, 4);
  std::set<std::uint32_t> seen;
  for (paxos::ClientId client = 1; client <= 64; ++client) {
    const auto a = router.route(Bytes{0x5A}, client);
    const auto b = router.route(Bytes{0x5A}, client);
    ASSERT_FALSE(a.global);
    EXPECT_EQ(a.partition, b.partition) << "a client's closed loop must stay in one stream";
    seen.insert(a.partition);
  }
  EXPECT_GT(seen.size(), 1u) << "keyless traffic should spread across pipelines";
}

TEST(PartitionRouter, CrossPartitionAcquireAndMalformedGoGlobal) {
  LockService lock;
  PartitionRouter router(lock, 4);
  // Across enough names, ACQUIRE must produce both co-located (single
  // partition) and cross-partition (global) routes: the lock name hashes
  // freely while the fencing counter key is fixed.
  bool saw_single = false, saw_global = false;
  for (int i = 0; i < 64 && !(saw_single && saw_global); ++i) {
    const auto route = router.route(LockService::make_acquire("lock" + std::to_string(i), 1), 1);
    (route.global ? saw_global : saw_single) = true;
  }
  EXPECT_TRUE(saw_single);
  EXPECT_TRUE(saw_global);
  // CHECK/RELEASE touch only the name: never global.
  EXPECT_FALSE(router.route(LockService::make_check("lock1"), 1).global);
  // Malformed requests cannot name their state: global.
  EXPECT_TRUE(router.route(Bytes{0xFF, 0xFF}, 1).global);
}

// --- PartitionManifest codec -------------------------------------------------

TEST(PartitionManifest, RoundTrips) {
  PartitionManifest manifest;
  manifest.parts.push_back({7, Bytes{1, 2, 3}, Bytes{4}});
  manifest.parts.push_back({11, Bytes{}, Bytes{5, 6}});
  const Bytes encoded = encode_manifest(manifest);
  const PartitionManifest decoded = decode_manifest(encoded);
  ASSERT_EQ(decoded.parts.size(), 2u);
  EXPECT_EQ(decoded.parts[0].next_instance, 7u);
  EXPECT_EQ(decoded.parts[0].state, (Bytes{1, 2, 3}));
  EXPECT_EQ(decoded.parts[0].reply_cache, (Bytes{4}));
  EXPECT_EQ(decoded.parts[1].next_instance, 11u);
  EXPECT_EQ(decoded.parts[1].reply_cache, (Bytes{5, 6}));
}

TEST(PartitionManifest, RejectsGarbage) {
  EXPECT_THROW(decode_manifest(Bytes{1, 2, 3, 4, 5, 6, 7, 8}), DecodeError);
  EXPECT_THROW(decode_manifest(Bytes{}), DecodeError);
}

// --- CrossPartitionBarrier ---------------------------------------------------

TEST(CrossPartitionBarrier, ExecutesPartitionZeroOrderExactlyOnce) {
  constexpr std::uint32_t kPartitions = 3;
  constexpr std::uint64_t kGlobals = 8;
  CrossPartitionBarrier barrier(kPartitions);

  std::mutex mu;
  std::vector<std::uint64_t> executed_order;  // client ids, in execution order
  std::set<std::uint64_t> executed;
  barrier.set_global_exec([&](const paxos::Request& request) {
    std::lock_guard<std::mutex> guard(mu);
    executed_order.push_back(request.client_id);
    executed.insert(request.client_id);
  });

  // Each partition orders the same globals, but in a different relative
  // order — the barrier must still execute them in PARTITION 0's order.
  std::vector<std::vector<paxos::Request>> streams(kPartitions);
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    for (std::uint64_t g = 0; g < kGlobals; ++g) {
      const std::uint64_t id = p == 0 ? g : (g * 7 + p) % kGlobals;
      streams[p].push_back(paxos::Request{id + 1, 1, Bytes{}});
    }
  }

  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    threads.emplace_back([&, p] {
      for (auto& request : streams[p]) {
        for (;;) {
          {
            std::lock_guard<std::mutex> guard(mu);
            if (executed.count(request.client_id) != 0) break;
          }
          ASSERT_TRUE(barrier.arrive(p, request));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  ASSERT_EQ(executed_order.size(), kGlobals);
  for (std::uint64_t g = 0; g < kGlobals; ++g) {
    EXPECT_EQ(executed_order[g], g + 1) << "execution order must be partition 0's order";
  }
  EXPECT_EQ(barrier.globals_executed(), kGlobals);
}

TEST(CrossPartitionBarrier, QuiesceRunsWorkWithoutExecutingGlobals) {
  CrossPartitionBarrier barrier(2);
  std::atomic<int> globals{0};
  std::atomic<int> worked{0};
  barrier.set_global_exec([&](const paxos::Request&) { globals.fetch_add(1); });

  // Partition 1 parks at a cross-partition request; partition 0 requests a
  // quiesce. The mixed cycle must run the work but NOT the global (its
  // execution point would be timing-dependent).
  paxos::Request head{1, 1, Bytes{}};
  std::thread waiter([&] {
    EXPECT_TRUE(barrier.arrive(1, head));
    // Released by the quiesce cycle without the global executing.
  });
  std::thread requester([&] {
    // Give the waiter time to park; either interleaving yields a mixed
    // cycle (the requester participates as a helper, never with a head).
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_TRUE(barrier.quiesce(0, [&] { worked.fetch_add(1); }));
  });
  waiter.join();
  requester.join();
  EXPECT_EQ(worked.load(), 1);
  EXPECT_EQ(globals.load(), 0) << "mixed cycles must not execute cross-partition requests";

  barrier.close();
  EXPECT_FALSE(barrier.arrive(1, head));
}

// --- cluster-level determinism ----------------------------------------------

/// Decode a (versioned) KvService snapshot into a plain value map. The
/// per-key last-write instance travels after the value; state comparison
/// here is value-level (versions are covered by state_manifest equality,
/// which compares the raw snapshots including versions).
std::map<std::string, Bytes> decode_kv(const Bytes& snapshot) {
  std::map<std::string, Bytes> map;
  ByteReader reader(snapshot);
  const std::uint64_t count = reader.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key = reader.str();
    map[std::move(key)] = reader.bytes();
    reader.u64();  // last-write version
  }
  return map;
}

/// All shards of one replica merged into one logical map.
std::map<std::string, Bytes> merged_kv(SimCluster& cluster, ReplicaId id) {
  std::map<std::string, Bytes> merged;
  for (std::uint32_t p = 0; p < cluster.replica(id).num_partitions(); ++p) {
    for (auto& [key, value] :
         decode_kv(dynamic_cast<KvService&>(cluster.replica(id).service(p)).snapshot())) {
      merged[key] = value;
    }
  }
  return merged;
}

/// Drive a fixed, deterministic KV workload and return the merged final
/// state (asserting all replicas converged to identical manifests).
std::map<std::string, Bytes> run_kv_workload(Config config) {
  SimCluster cluster(config, testing::fast_net(),
                     [] { return std::make_unique<KvService>(); });
  cluster.start();
  EXPECT_TRUE(cluster.wait_for_leader().has_value());

  auto client = cluster.make_client(5);
  for (int i = 0; i < 48; ++i) {
    const std::string key = "key" + std::to_string(i % 16);
    EXPECT_TRUE(
        client.call(KvService::make_put(key, Bytes{static_cast<std::uint8_t>(i)})).has_value());
  }
  EXPECT_TRUE(client.call(KvService::make_del("key3")).has_value());
  EXPECT_TRUE(client.call(KvService::make_cas("key4", Bytes{36}, Bytes{99})).has_value());
  auto got = client.call(KvService::make_get("key5"));
  EXPECT_TRUE(got.has_value());

  // Followers must converge to the leader's stitched state.
  const std::uint64_t deadline = mono_ns() + 10 * kSeconds;
  auto converged = [&] {
    const Bytes m0 = cluster.replica(0).state_manifest();
    return m0 == cluster.replica(1).state_manifest() &&
           m0 == cluster.replica(2).state_manifest();
  };
  while (mono_ns() < deadline && !converged()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(converged()) << "replicas did not converge (partitions="
                           << config.num_partitions << ")";
  return merged_kv(cluster, 0);
}

TEST(PartitionedCluster, SameStateAcrossPartitionCountsAndExecutors) {
  // Baseline: the single pipeline, exactly the pre-partitioning replica.
  Config base;
  const auto expected = run_kv_workload(base);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(expected.count("key3"), 0u) << "DEL must hold";
  EXPECT_EQ(expected.at("key4"), Bytes{99}) << "CAS must hold";

  for (std::uint32_t partitions : {2u, 4u}) {
    for (const char* executor : {"serial", "affinity"}) {
      Config config;
      config.num_partitions = partitions;
      config.apply_overrides({{"executor_impl", executor}});
      const auto merged = run_kv_workload(config);
      EXPECT_EQ(merged, expected) << "state diverged at partitions=" << partitions
                                  << " executor=" << executor;
    }
  }
}

TEST(PartitionedCluster, SinglePartitionIsTheLegacyPipeline) {
  Config config;  // num_partitions = 1
  SimCluster cluster(config, testing::fast_net(),
                     [] { return std::make_unique<KvService>(); });
  // Env overrides (the _partitioned CTest variant) would change the shape;
  // this test pins the default.
  if (cluster.config().num_partitions != 1) GTEST_SKIP();
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());
  EXPECT_EQ(cluster.replica(0).num_partitions(), 1u);
  EXPECT_EQ(cluster.replica(0).barrier(), nullptr)
      << "one pipeline must not pay for any cross-partition machinery";

  auto client = cluster.make_client(9);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(client.call(KvService::make_put("k" + std::to_string(i), Bytes{7})).has_value());
  }
  // Byte-identical state on every replica once quiesced.
  const std::uint64_t deadline = mono_ns() + 10 * kSeconds;
  auto identical = [&] {
    const Bytes s0 = dynamic_cast<KvService&>(cluster.replica(0).service()).snapshot();
    return !s0.empty() &&
           s0 == dynamic_cast<KvService&>(cluster.replica(1).service()).snapshot() &&
           s0 == dynamic_cast<KvService&>(cluster.replica(2).service()).snapshot();
  };
  while (mono_ns() < deadline && !identical()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(identical());
}

TEST(PartitionedCluster, SnapshotSlotsShareOneManifestBuffer) {
  // capture_manifest() encodes the whole-replica manifest ONCE and hands
  // the same immutable buffer to every partition's snapshot slot. Copying
  // it P times was pure waste — the manifest is identical for all engines.
  // Pointer identity across slots is the contract.
  Config config;
  config.num_partitions = 3;
  config.snapshot_interval_instances = 8;
  SimCluster cluster(config, testing::fast_net(),
                     [] { return std::make_unique<KvService>(); });
  cluster.start();
  auto leader = cluster.wait_for_leader();
  ASSERT_TRUE(leader.has_value());

  auto client = cluster.make_client(13);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        client.call(KvService::make_put("k" + std::to_string(i % 8), Bytes{1})).has_value());
  }

  const Replica& replica = cluster.replica(*leader);
  const std::uint64_t deadline = mono_ns() + 10 * kSeconds;
  auto all_captured = [&] {
    for (std::uint32_t p = 0; p < replica.num_partitions(); ++p) {
      if (replica.latest_snapshot(p) == nullptr) return false;
    }
    return true;
  };
  while (mono_ns() < deadline && !all_captured()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(all_captured()) << "snapshot interval never fired";

  const auto slot0 = replica.latest_snapshot(0);
  for (std::uint32_t p = 1; p < replica.num_partitions(); ++p) {
    EXPECT_EQ(slot0->state.get(), replica.latest_snapshot(p)->state.get())
        << "partition " << p << " copied the manifest instead of sharing it";
  }
}

TEST(PartitionedCluster, CrossPartitionLocksKeepFencingTokensUnique) {
  Config config;
  config.num_partitions = 3;
  SimCluster cluster(config, testing::fast_net(),
                     [] { return std::make_unique<LockService>(); });
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_leader().has_value());

  auto client = cluster.make_client(21);
  std::set<std::uint64_t> tokens;
  constexpr int kLocks = 12;
  for (int i = 0; i < kLocks; ++i) {
    auto reply = client.call(LockService::make_acquire("lock" + std::to_string(i), 21));
    ASSERT_TRUE(reply.has_value());
    const auto result = LockService::parse_acquire_reply(*reply);
    ASSERT_TRUE(result.granted) << "fresh lock " << i << " must grant";
    EXPECT_TRUE(tokens.insert(result.fencing_token).second)
        << "fencing tokens must be unique across partitions";
  }
  // Tokens come from ONE counter shard: a contiguous 1..N sequence proves
  // no shard minted tokens independently.
  EXPECT_EQ(*tokens.begin(), 1u);
  EXPECT_EQ(*tokens.rbegin(), static_cast<std::uint64_t>(kLocks));

  // The rendezvous path must actually have run (some names hash off the
  // counter shard).
  ReplicaId leader = *cluster.wait_for_leader();
  EXPECT_GT(cluster.replica(leader).barrier()->globals_executed(), 0u);

  // Re-entrant acquire keeps its token; a second owner is denied.
  auto again = client.call(LockService::make_acquire("lock0", 21));
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(LockService::parse_acquire_reply(*again).granted);
  EXPECT_EQ(LockService::parse_acquire_reply(*again).fencing_token, *tokens.begin());

  // All replicas converge to the same stitched lock state.
  const std::uint64_t deadline = mono_ns() + 10 * kSeconds;
  auto converged = [&] {
    const Bytes m0 = cluster.replica(0).state_manifest();
    return m0 == cluster.replica(1).state_manifest() &&
           m0 == cluster.replica(2).state_manifest();
  };
  while (mono_ns() < deadline && !converged()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(converged());
}

}  // namespace
}  // namespace mcsmr::smr
