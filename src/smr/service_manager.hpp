// ServiceManager module (§V-D) — the paper's "Replica" thread.
//
// Consumes the DecisionQueue: extracts requests from each decided batch in
// final order, executes them on the Service, updates the striped reply
// cache, and hands each reply to the ClientIO thread that owns the
// client's connection. Also produces periodic snapshots (used for state
// transfer to lagging peers) and installs received ones.
//
// Execution strategy (Config::executor_impl):
//   serial   — the paper's baseline: requests applied inline, one at a
//              time, on this thread;
//   affinity — early-scheduled per-key worker affinity: batches arrive
//              with classification footprints embedded (v2 encoding, see
//              paxos/messages.cpp), so this thread only dedups and routes
//              each request to its owning worker's queue — no classify(),
//              no per-batch barrier, no reply hand-off. Workers execute and
//              reply; the executed frontier advances through per-worker
//              tokens (AffinityExecutor::publish_frontier). Snapshots,
//              installs and cross-partition barriers quiesce the workers
//              explicitly (quiesce()/resume()). v1 batches (an old
//              leader, recovery no-ops) are classified here as a
//              fallback — classify() is deterministic, so the result
//              matches what the batcher would have embedded.
//
// Partitioned replicas (num_partitions > 1) run one ServiceManager per
// pipeline over that pipeline's shard. The PartitionHooks wire in the
// cross-partition pieces: requests the router calls cross-partition park
// at the CrossPartitionBarrier until every pipeline reaches a request
// boundary (see smr/partition.hpp for the execution-order contract), and
// snapshots become whole-replica manifests captured/installed at barrier
// quiesce cycles (capture is triggered by partition 0's instance count).
//
// Exactly-once: a request already recorded as executed (its seq <= the
// client's cached seq) is skipped — this absorbs the rare double-decide of
// a retried request across a view change. The affinity path additionally
// dedups within the batch before dispatch (the serial path gets this for
// free from its per-request cache check).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "metrics/thread_stats.hpp"
#include "paxos/engine.hpp"
#include "smr/client_io.hpp"
#include "smr/events.hpp"
#include "smr/executor.hpp"
#include "smr/partition.hpp"
#include "smr/reply_cache.hpp"
#include "smr/service.hpp"
#include "smr/shared_state.hpp"

namespace mcsmr::smr {

/// Cross-partition wiring for one pipeline's ServiceManager. Default
/// (null barrier/router) = the single-pipeline replica; every partitioned
/// code path is off and behavior is exactly the pre-partitioning one.
struct PartitionHooks {
  std::uint32_t index = 0;
  CrossPartitionBarrier* barrier = nullptr;
  const PartitionRouter* router = nullptr;
  /// Build the stitched manifest and distribute it to every partition's
  /// snapshot slot (runs at a quiesce cycle; provided by the Replica).
  std::function<void()> capture;
  /// Install a received manifest across all partitions (runs at a quiesce
  /// cycle; provided by the Replica).
  std::function<void(const SnapshotInstallEvent&)> install;
};

class ServiceManager {
 public:
  ServiceManager(const Config& config, DecisionQueue& decisions, Service& service,
                 ReplyCache& reply_cache, ClientIo& client_io, DispatcherQueue& dispatcher,
                 SharedState& shared, PartitionHooks hooks = {});
  ~ServiceManager();

  void start();
  void stop();

  /// Latest snapshot, if any (read on the Protocol thread through the
  /// engine's snapshot provider hook).
  std::shared_ptr<const paxos::SnapshotData> latest_snapshot() const;
  /// Replica-level manifest capture/install write the slot directly.
  void set_latest_snapshot(std::shared_ptr<const paxos::SnapshotData> snapshot);

  std::uint64_t executed_instances() const {
    return executed_instances_.load(std::memory_order_relaxed);
  }
  /// Whole-replica manifest install fast-forwards sibling pipelines.
  void set_executed_instances(std::uint64_t next_instance) {
    executed_instances_.store(next_instance, std::memory_order_relaxed);
    shared_.executed_frontier.store(next_instance, std::memory_order_release);
  }

  /// The affinity executor, if one is configured (benches/tests).
  const AffinityExecutor* affinity_executor() const { return affinity_.get(); }

 private:
  void run();
  void execute_batch(paxos::InstanceId instance, const Bytes& batch);
  /// Advance executed_instances_ past `instance` (monotonic — a manifest
  /// install may already have moved it further).
  void mark_instance_consumed(paxos::InstanceId instance);
  void execute_serial(const std::vector<paxos::Request>& requests);
  void execute_affinity(paxos::InstanceId instance, std::vector<paxos::Request>& requests,
                        const std::vector<RequestClass>& classes);
  void maybe_snapshot(paxos::InstanceId instance);
  void handle_install(const SnapshotInstallEvent& event);
  void maybe_help_barrier();
  bool cross_partition(const paxos::Request& request) const;
  /// Park at the barrier until `request` is executed (by whichever cycle
  /// closes with it as partition 0's head). False = shutting down.
  bool wait_cross_partition(const paxos::Request& request);

  // Owned copy, not a reference: a stored Config& tied this object's
  // lifetime to the constructor argument (the PR-6 dangling-Config bug
  // class); lint_invariants.py forbids storing the parameter by ref.
  const Config config_;
  DecisionQueue& decisions_;
  Service& service_;
  ReplyCache& reply_cache_;
  ClientIo& client_io_;
  DispatcherQueue& dispatcher_;
  SharedState& shared_;
  PartitionHooks hooks_;

  std::unique_ptr<AffinityExecutor> affinity_;  ///< null unless kAffinity
  /// Affinity dedup state (this thread only): highest seq dispatched per
  /// client. The reply cache lags execution in affinity mode (workers
  /// update it), so the pre-dispatch duplicate check can't rely on it —
  /// the cache is consulted only for what an install fast-forwarded.
  std::unordered_map<std::uint64_t, std::uint64_t> enqueued_seq_;

  std::atomic<std::uint64_t> executed_instances_{0};

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const paxos::SnapshotData> latest_snapshot_;

  metrics::NamedThread thread_;
  bool started_ = false;
};

}  // namespace mcsmr::smr
