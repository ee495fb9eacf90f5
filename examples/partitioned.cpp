// Partitioned replicas: shard each replica into multiple independent
// SMR pipelines (Config::num_partitions) and layer the affinity executor
// on top, so both the protocol stages AND request execution scale with
// cores.
//
//   $ ./example_partitioned
//
// Keys are routed to a partition by hash on the client side; each
// partition runs the paper's full pipeline (its own Paxos log, batcher,
// protocol thread and service shard), and within a partition the
// affinity executor fans decided requests out to per-key worker chains.
// Cross-partition requests and snapshots still work — they rendezvous at
// explicit barriers — but the common case never leaves its shard. This
// uses the SimNet transport; see kv_store.cpp for the real-TCP shape.
#include <cstdio>
#include <string>

#include "net/simnet.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

using namespace mcsmr;

int main() {
  net::SimNetwork network;

  // Two pipelines per replica, each executing through two affinity
  // workers. serial/affinity and 1..N partitions compose
  // freely — these two knobs are the multi-core levers of the repo.
  Config config;
  config.apply_overrides({{"num_partitions", "2"},
                          {"executor_impl", "affinity"},
                          {"executor_workers", "2"}});

  std::vector<net::NodeId> nodes;
  for (int id = 0; id < config.n; ++id) {
    nodes.push_back(network.add_node("replica-" + std::to_string(id)));
  }
  // A partitioned replica needs a service FACTORY (one shard instance per
  // pipeline), not a single pre-built service.
  std::vector<std::unique_ptr<smr::Replica>> replicas;
  const smr::Replica::ServiceFactory factory = [] { return std::make_unique<smr::KvService>(); };
  for (int id = 0; id < config.n; ++id) {
    replicas.push_back(
        smr::Replica::create_sim(config, static_cast<ReplicaId>(id), network, nodes, factory));
  }
  for (auto& replica : replicas) replica->start();

  smr::SimClient client(network, nodes, /*client_id=*/1, config.client_io_threads);

  // The keys spread across both partitions (the router hashes them); each
  // partition orders and executes its share independently.
  std::printf("writing 64 keys across %d partitions...\n", config.num_partitions);
  for (int i = 0; i < 64; ++i) {
    const std::string key = "key-" + std::to_string(i);
    if (!client.call(smr::KvService::make_put(key, Bytes{static_cast<std::uint8_t>(i)}))) {
      std::fprintf(stderr, "write %d failed\n", i);
      return 1;
    }
  }
  auto got = client.call(smr::KvService::make_get("key-7"));
  if (!got.has_value() || (*smr::KvService::parse_reply(*got))[0] != 7) {
    std::fprintf(stderr, "readback failed\n");
    return 1;
  }
  std::printf("key-7 = 7, served by its owning partition\n");

  // Every replica executed the same per-partition sequences; their states
  // agree shard by shard.
  for (auto& replica : replicas) {
    std::printf("replica %u executed %llu requests, decided %llu instances\n",
                replica->id(), static_cast<unsigned long long>(replica->executed_requests()),
                static_cast<unsigned long long>(replica->decided_instances()));
  }

  for (auto& replica : replicas) replica->stop();
  std::printf("done.\n");
  return 0;
}
