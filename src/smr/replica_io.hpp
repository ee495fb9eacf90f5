// ReplicaIO module (§V-B): blocking I/O, two dedicated threads per peer.
//
// For every other replica p there is a ReplicaIORcv-p thread (reads and
// deserializes frames from p, stamps the failure-detector timestamp, and
// pushes the decoded message on the DispatcherQueue) and a ReplicaIOSnd-p
// thread (drains p's SendQueue and writes the frames). send()/broadcast()
// encode on the caller's thread — once per message, not once per peer —
// and only enqueue the bytes. The dedicated sender keeps the caller from
// ever blocking on a slow or dead peer's socket — a full SendQueue is
// detected with try_push and the frame is dropped, exactly the paper's
// remedy for the distributed-deadlock hazard; end-to-end retransmission
// recovers the loss.
//
// Partitioned replicas (Config::num_partitions > 1) share ONE ReplicaIo —
// per-peer sockets and send queues are a replica-level resource. Each
// partition registers its (DispatcherQueue, SharedState) feed; outgoing
// frames are tagged with a one-byte partition id and receive threads
// demultiplex to the owning partition's dispatcher. With a single
// registered partition the tag is omitted and the wire format is exactly
// the pre-partitioning one.
#pragma once

#include <memory>
#include <vector>

#include "metrics/thread_stats.hpp"
#include "smr/events.hpp"
#include "smr/shared_state.hpp"
#include "smr/transport.hpp"

namespace mcsmr::smr {

class ReplicaIo {
 public:
  /// Thread naming, overridable so the ZooKeeper-like baseline can present
  /// its Fig-1b thread names ("Sender-p") while reusing this module.
  struct ThreadNames {
    std::string rcv_prefix = "ReplicaIORcv-";
    std::string snd_prefix = "ReplicaIOSnd-";
  };

  /// Partition-fed construction: call register_partition() once per
  /// pipeline (in partition order) before start().
  ReplicaIo(const Config& config, ReplicaId self, PeerTransport& transport);
  /// Single-pipeline convenience (legacy signature; also the baseline's).
  ReplicaIo(const Config& config, ReplicaId self, PeerTransport& transport,
            DispatcherQueue& dispatcher, SharedState& shared);
  ReplicaIo(const Config& config, ReplicaId self, PeerTransport& transport,
            DispatcherQueue& dispatcher, SharedState& shared, ThreadNames names);

  /// Register partition feeds in index order, before start(). The first
  /// registered SharedState also hosts the replica-level liveness
  /// timestamps and I/O counters.
  void register_partition(DispatcherQueue& dispatcher, SharedState& shared);

  /// `spawn_receivers=false` starts only the sender threads; the caller
  /// then owns receiving (the baseline's LearnerHandler threads do).
  void start(bool spawn_receivers = true);
  void stop();

  /// Encode once and enqueue to one peer, tagged for `partition`. Never
  /// blocks: returns false and drops the frame if the SendQueue is full.
  bool send(ReplicaId to, const paxos::Message& message, std::uint32_t partition = 0);

  /// Encode once and enqueue to every other replica.
  void broadcast(const paxos::Message& message, std::uint32_t partition = 0);

  std::size_t send_queue_size(ReplicaId to) const;
  std::uint32_t partition_count() const {
    return static_cast<std::uint32_t>(feeds_.size());
  }

 private:
  struct Feed {
    DispatcherQueue* dispatcher = nullptr;
    SharedState* shared = nullptr;
  };

  void rcv_loop(ReplicaId peer);
  void snd_loop(ReplicaId peer);
  bool enqueue_frame(ReplicaId to, const Bytes& frame);
  Bytes encode_frame(std::uint32_t partition, const paxos::Message& message) const;
  SharedState& liveness() const { return *feeds_.front().shared; }

  // Owned copy, not a reference: a stored Config& tied this object's
  // lifetime to the constructor argument (the PR-6 dangling-Config bug
  // class); lint_invariants.py forbids storing the parameter by ref.
  const Config config_;
  const ReplicaId self_;
  PeerTransport& transport_;
  std::vector<Feed> feeds_;  // one per partition, index = partition id

  std::vector<std::unique_ptr<SendQueue>> send_queues_;  // indexed by peer id
  std::vector<metrics::NamedThread> threads_;
  ThreadNames names_;
  bool started_ = false;
};

/// A per-partition handle over the shared ReplicaIo: same send API with
/// this partition's tag applied, so per-partition modules (ProtocolThread,
/// Retransmitter, FailureDetector) stay unaware of their siblings. Cheap
/// value type; implicitly converts from ReplicaIo& for the single-pipeline
/// call sites (partition 0).
class PartitionIo {
 public:
  /*implicit*/ PartitionIo(ReplicaIo& io, std::uint32_t partition = 0)
      : io_(&io), partition_(partition) {}

  bool send(ReplicaId to, const paxos::Message& message) const {
    return io_->send(to, message, partition_);
  }
  void broadcast(const paxos::Message& message) const {
    io_->broadcast(message, partition_);
  }
  std::size_t send_queue_size(ReplicaId to) const { return io_->send_queue_size(to); }
  std::uint32_t partition() const { return partition_; }

 private:
  ReplicaIo* io_;
  std::uint32_t partition_;
};

}  // namespace mcsmr::smr
