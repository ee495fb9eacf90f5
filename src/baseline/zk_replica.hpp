// Baseline: a ZooKeeper-3.3.3-style replica architecture.
//
// This is the comparison system of the paper's Figs 1, 12, 13, 14 — the
// same replication protocol, but structured the way Zab's leader process
// is: a chain of single-purpose pipeline threads coordinating through one
// coarse *global* lock, with no request batching (every client request is
// its own proposal). The paper's profiling attributes ZooKeeper's collapse
// beyond 4 cores to exactly these structural properties:
//
//   * PrepThread ("ProcessThread" in Fig 1b) — takes client requests one
//     at a time and turns each into a proposal under the global lock;
//   * SyncThread — the transaction-log append stage; even on a ramdisk it
//     costs per-request CPU (serialization + checksum) and serializes all
//     proposals;
//   * LearnerHandler-p / Sender-p — per-peer reader/writer threads that
//     process every protocol message under the global lock; every frame
//     leaves on Sender-p (ReplicaIo::Options::inline_sends = false —
//     writing inline would lengthen the global-lock hold);
//   * CommitProcessor — applies committed requests while *holding the
//     global lock*, making it the single-thread bottleneck whose 100%
//     busy+blocked profile dominates Fig 1b/14b;
//   * a coarse single-stripe reply cache (the paper's "conventional hash
//     table based on coarse-grained locking").
//
// Correctness still comes from the same paxos::Engine; only the threading
// architecture differs — which is the point of the comparison.
#pragma once

#include <memory>

#include "metrics/thread_stats.hpp"
#include "paxos/engine.hpp"
#include "smr/client_io.hpp"
#include "smr/events.hpp"
#include "smr/replica_io.hpp"
#include "smr/reply_cache.hpp"
#include "smr/retransmitter.hpp"
#include "smr/service.hpp"
#include "smr/shared_state.hpp"
#include "smr/transport.hpp"

namespace mcsmr::baseline {

using smr::ClientIo;
using smr::ReplyCache;
using smr::Service;

struct ZkParams {
  /// Simulated per-request transaction-log cost (serialization + CRC over
  /// the payload; ZooKeeper pays this even with /dev/shm logs).
  std::uint64_t sync_cost_ns = 4'000;
  /// Extra CPU burned per commit while holding the global lock (ZK's
  /// commit path: building the tree txn, watches, serializing the reply).
  std::uint64_t commit_cost_ns = 4'000;
  /// Per-proposal preparation cost under the global lock.
  std::uint64_t prep_cost_ns = 3'000;
};

class ZkReplica {
 public:
  /// SimNet-backed baseline replica (benches and tests).
  static std::unique_ptr<ZkReplica> create_sim(const Config& config, ReplicaId self,
                                               net::SimNetwork& net,
                                               const std::vector<net::NodeId>& replica_nodes,
                                               std::unique_ptr<Service> service,
                                               ZkParams params = {});

  ~ZkReplica();
  ZkReplica(const ZkReplica&) = delete;
  ZkReplica& operator=(const ZkReplica&) = delete;

  void start();
  void stop();

  ReplicaId id() const { return self_; }
  bool is_leader() const { return shared_.is_leader.load(std::memory_order_relaxed); }
  std::uint64_t executed_requests() const {
    return shared_.executed_requests.load(std::memory_order_relaxed);
  }
  smr::SharedState& shared() { return shared_; }

 private:
  ZkReplica(const Config& config, ReplicaId self,
            std::unique_ptr<smr::PeerTransport> transport, std::unique_ptr<Service> service,
            ZkParams params);

  void prep_loop();            // "ProcessThread"
  void sync_loop();            // "SyncThread"
  void learner_loop(ReplicaId peer);  // "LearnerHandler-p"
  void commit_loop();          // "CommitProcessor"
  void apply_effects(std::vector<paxos::Effect>& effects);  // global lock held

  /// Burn approximately `ns` of CPU (models ZK's per-stage work).
  static void burn(std::uint64_t ns);

  Config config_;
  ReplicaId self_;
  ZkParams params_;
  smr::SharedState shared_;

  smr::RequestQueue request_queue_;
  BoundedBlockingQueue<Bytes> sync_queue_;       // proposals awaiting "log append"
  BoundedBlockingQueue<smr::Decision> commit_queue_;

  std::unique_ptr<smr::PeerTransport> transport_;
  std::unique_ptr<Service> service_;
  ReplyCache reply_cache_;  // single stripe: coarse-locked

  // The defining feature: one lock around all protocol + commit state.
  metrics::InstrumentedMutex global_lock_;
  paxos::Engine engine_;

  // Required by the reused ReplicaIo but never consumed: the baseline's
  // LearnerHandler threads receive from the transport directly.
  smr::DispatcherQueue unused_dispatcher_{1, "unused"};

  smr::ReplicaIo replica_io_;
  smr::Retransmitter retransmitter_;
  std::unique_ptr<ClientIo> client_io_;

  std::vector<metrics::NamedThread> threads_;
  std::atomic<bool> running_{false};
  bool started_ = false;
};

}  // namespace mcsmr::baseline
