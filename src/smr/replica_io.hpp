// ReplicaIO module (§V-B): per-peer I/O.
//
// Every peer frame comes in through on_frame(): it stamps the
// failure-detector timestamp, strips the partition tag, decodes the
// message and hands it to the owning partition's DispatcherQueue. Who
// calls it depends on the transport. One that can push frames (SimNet,
// PeerTransport::set_receiver) calls it on its own delivery thread —
// the part the kernel plays for a socket — so there is no ReplicaIORcv
// thread and no extra wake-up on every Propose and Accept; that path
// never blocks (a full or closed DispatcherQueue is a counted drop, as a
// full NIC ring would be). Over any other transport (TCP) a ReplicaIORcv-p
// thread per peer blocks in recv_from() and pushes with backpressure.
//
// send()/broadcast() encode on the caller's thread — once per message,
// not once per peer. Where the frame is written depends on the transport.
// One whose send_to() never blocks (SimNet) is written on the caller's
// thread: there is no SendQueue and no sender thread. One that may block
// (TCP) gets a ReplicaIOSnd-p thread per peer that drains p's SendQueue
// and writes the frames: it keeps the caller from ever blocking on a slow
// or dead peer's socket — a full SendQueue is detected with try_push and
// the frame is dropped, exactly the paper's remedy for the
// distributed-deadlock hazard; end-to-end retransmission recovers the
// loss. Either way one producer's frames to a peer are written in the
// order it sent them.
//
// Partitioned replicas (Config::num_partitions > 1) share ONE ReplicaIo —
// per-peer sockets and send queues are a replica-level resource. Each
// partition registers its (DispatcherQueue, SharedState) feed; outgoing
// frames are tagged with a one-byte partition id and on_frame()
// demultiplexes to the owning partition's dispatcher. With a single
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

/// Sender-thread naming and the inline-send opt-out, overridable so the
/// ZooKeeper-like baseline can present its Fig-1b architecture (every
/// frame leaves on a "Sender-p" thread) while reusing ReplicaIo; it
/// receives on its own threads (start(false)). At namespace scope so it
/// can be a defaulted constructor argument.
struct ReplicaIoOptions {
  std::string snd_prefix = "ReplicaIOSnd-";
  /// Write on the caller's thread when the transport never blocks;
  /// false always goes through the SendQueue and sender thread.
  bool inline_sends = true;
};

class ReplicaIo {
 public:
  using Options = ReplicaIoOptions;

  /// Frames waiting for one peer's sender thread; a full queue is a
  /// counted drop (SharedState::dropped_peer_frames), never a block.
  static constexpr std::size_t kSendQueueCap = 8192;

  /// Partition-fed construction: call register_partition() once per
  /// pipeline (in partition order) before start().
  ReplicaIo(const Config& config, ReplicaId self, PeerTransport& transport,
            Options options = {});

  /// Register partition feeds in index order, before start(). The first
  /// registered SharedState also hosts the replica-level liveness
  /// timestamps and I/O counters.
  void register_partition(DispatcherQueue& dispatcher, SharedState& shared);

  ~ReplicaIo() { stop(); }
  // The transport's receiver and the threads hold `this`.
  ReplicaIo(const ReplicaIo&) = delete;
  ReplicaIo& operator=(const ReplicaIo&) = delete;

  /// Attaches to a transport that pushes frames, or else starts one
  /// ReplicaIORcv thread per peer; plus the sender threads, if any.
  /// `spawn_receivers=false` does neither: the caller then owns receiving
  /// (the baseline's LearnerHandler threads do).
  void start(bool spawn_receivers = true);
  /// Detaches from the transport and joins every thread; once it returns
  /// no transport thread is inside on_frame().
  void stop();

  /// Encode once and send to one peer, tagged for `partition`. Never
  /// blocks on the peer: returns false and drops the frame if the link is
  /// down (inline write) or the SendQueue is full.
  bool send(ReplicaId to, const paxos::Message& message, std::uint32_t partition = 0);

  /// Encode once and send to every other replica.
  void broadcast(const paxos::Message& message, std::uint32_t partition = 0);

  std::uint32_t partition_count() const {
    return static_cast<std::uint32_t>(feeds_.size());
  }

 private:
  struct Feed {
    DispatcherQueue* dispatcher = nullptr;
    SharedState* shared = nullptr;
  };

  /// The one receive path. `may_block` pushes with backpressure (a
  /// ReplicaIORcv thread); otherwise a full DispatcherQueue drops the
  /// frame. Returns false if the frame was not handed over because the
  /// DispatcherQueue is full or closed (counted in dropped_peer_frames).
  bool on_frame(ReplicaId peer, const Bytes& frame, bool may_block);
  void rcv_loop(ReplicaId peer);
  void snd_loop(ReplicaId peer);
  bool send_frame(ReplicaId to, const Bytes& frame);
  Bytes encode_frame(std::uint32_t partition, const paxos::Message& message) const;
  SharedState& liveness() const { return *feeds_.front().shared; }

  // Owned copy, not a reference: a stored Config& tied this object's
  // lifetime to the constructor argument (the PR-6 dangling-Config bug
  // class); lint_invariants.py forbids storing the parameter by ref.
  const Config config_;
  const ReplicaId self_;
  PeerTransport& transport_;
  std::vector<Feed> feeds_;  // one per partition, index = partition id

  Options options_;
  const bool inline_sends_;  // options_.inline_sends && transport never blocks
  // Indexed by peer id; empty with inline sends, and null for self.
  std::vector<std::unique_ptr<SendQueue>> send_queues_;
  std::vector<metrics::NamedThread> threads_;
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
  std::uint32_t partition() const { return partition_; }

 private:
  ReplicaIo* io_;
  std::uint32_t partition_;
};

}  // namespace mcsmr::smr
