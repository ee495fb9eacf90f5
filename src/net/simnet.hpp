// SimNet — an in-process network with a per-node NIC model.
//
// The paper's evaluation (§VI-D) localizes the throughput ceiling to the
// *network subsystem of the leader node*: the Linux 2.6.26 kernel serves
// all NIC interrupts from one core and saturates at ≈150K packets/s, which
// (a) caps throughput regardless of cores, (b) inflates ping RTT to the
// leader from 0.06 ms to ≈2.5 ms while leaving other links untouched
// (Table II), and (c) makes batch size BSZ=1300 the efficiency knee
// (Table III). We reproduce that mechanism with a queueing model:
//
//   * every node has one NIC "processor" with a packets/s budget and a
//     bytes/s bandwidth; both ingress and egress packets consume it
//     (matching the single-interrupt-queue explanation in the paper);
//   * a message of B bytes costs ceil(B/MSS) packets (Ethernet frames);
//   * the NIC is modeled as a FIFO reservation: each message occupies the
//     NIC from `busy_until` for its cost, so queueing delay — and thus
//     observed RTT — grows exactly when a node's packet rate approaches
//     its budget;
//   * a delivery thread releases messages into destination inboxes at
//     their computed arrival times (real-time, so the real threaded
//     replicas experience the modeled latency), or hands them to a sink
//     the receiver attached (set_sink), playing the kernel's part of
//     delivering a frame to the process with no receive thread to wake.
//
// The delivery thread's cost is per batch, not per message, because it
// sits on every request's path several times (request, Propose, Accept,
// reply). Each wake-up pops every message already due, in (due time,
// send order), under one lock hold, and resolves all their sinks and
// inboxes under one more. send() wakes it only when the new message is
// the earliest in flight; otherwise the thread's timed wait already ends
// in time. That wait runs with 1 ns timer slack: at the default 50 us
// the kernel would let it overshoot the due time by that much. Every
// delivery records its lateness (delivery time minus due time) in a
// histogram (lateness()).
//
// SimNet also provides per-directed-link fault injection (drop, duplicate,
// delay, jitter/reordering, partition) used by the Paxos and SMR property
// tests, and a ping probe that measures RTT through the same NIC
// reservations (regenerating Table II).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/histogram.hpp"
#include "common/queue.hpp"
#include "common/rand.hpp"
#include "metrics/net_counters.hpp"
#include "metrics/thread_stats.hpp"

namespace mcsmr::net {

using NodeId = std::uint32_t;
using Channel = std::uint32_t;

/// A message as seen by the receiving node.
struct SimMessage {
  NodeId from = 0;
  Channel channel = 0;
  Bytes payload;
  std::uint64_t sent_at_ns = 0;
};

struct SimNetParams {
  std::uint64_t one_way_ns = 30'000;  ///< base one-way latency (idle RTT 0.06 ms, Table II)
  double node_pps = 150'000;          ///< NIC packet budget per node; 0 = unlimited
  double node_bandwidth_bps = 114e6;  ///< NIC bandwidth bytes/s (114 MB/s GbE); 0 = unlimited
  std::uint64_t seed = 1;             ///< fault-injection RNG seed
  std::size_t inbox_capacity = 1 << 16;
  std::size_t max_nodes = 8192;       ///< node slots are preallocated (see add_node)
};

/// Per-directed-link fault plan (property tests).
struct FaultPlan {
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  std::uint64_t extra_delay_ns = 0;
  std::uint64_t jitter_ns = 0;  ///< uniform [0, jitter) extra delay => reordering
};

class SimNetwork {
 public:
  explicit SimNetwork(SimNetParams params = {});
  ~SimNetwork();
  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  /// Add a node. `unlimited_nic` exempts it from the packet budget (used
  /// for client machines, which the paper shows are far from saturation).
  /// Thread-safe and usable while traffic flows (slots are preallocated;
  /// a new node is only addressed by peers after it has messaged them,
  /// which orders the initialization). Throws when max_nodes is exceeded.
  NodeId add_node(std::string name, bool unlimited_nic = false);

  std::size_t node_count() const { return node_count_.load(std::memory_order_acquire); }

  /// Send `payload` from `from` to `to:channel`. Returns false after
  /// shutdown. A dropped (fault-injected) message still returns true —
  /// the sender cannot tell, as on a real network.
  bool send(NodeId from, NodeId to, Channel channel, Bytes payload);

  /// Blocking receive; nullopt when the inbox is closed.
  std::optional<SimMessage> recv(NodeId node, Channel channel);
  /// Blocking receive with timeout; nullopt on timeout or close.
  std::optional<SimMessage> recv_for(NodeId node, Channel channel, std::uint64_t timeout_ns);

  /// Close one inbox, waking blocked receivers (used at module shutdown).
  void close_inbox(NodeId node, Channel channel);

  /// Takes each message delivered to one (node, channel) in place of its
  /// inbox. Runs on the delivery thread, which serves every node: it must
  /// not block, and must not call set_sink.
  using Sink = std::function<void(SimMessage&&)>;

  /// Push delivery: from now on the delivery thread hands every message
  /// for (node, channel) to `sink` instead of queueing it. Messages already
  /// in the inbox go to `sink` first, in order, on the caller's thread.
  /// An empty `sink` restores the inbox; once the call returns, the
  /// previous sink is not running and is never called again. inject()
  /// still goes to the inbox.
  void set_sink(NodeId node, Channel channel, Sink sink);

  /// Replace a (possibly closed) inbox with a fresh empty one, so a
  /// crashed node can be restarted in place (close() is permanent on the
  /// underlying queue). Messages still queued are dropped — they died
  /// with the "process". Callers must ensure no thread of the old
  /// incarnation still receives on the channel.
  void reset_inbox(NodeId node, Channel channel);

  /// Local hand-off: place a message directly in (node, channel)'s inbox
  /// without traversing the NIC model. This is how a same-process module
  /// (e.g. the ServiceManager) posts work to a ClientIO thread's message
  /// queue — the paper's reply hand-off (Fig 3), which is not network
  /// traffic. Returns false if the inbox is full or closed.
  bool inject(NodeId node, Channel channel, SimMessage message);

  /// Fault injection on the directed link from->to.
  void set_fault(NodeId from, NodeId to, FaultPlan plan);
  /// Symmetric partition control: cut or heal both directions.
  void set_partition(NodeId a, NodeId b, bool cut);

  /// RTT of a 64-byte probe a->b->a measured through the same NIC
  /// reservations real traffic uses (Table II's `ping`). Does not sleep.
  std::uint64_t ping_rtt_ns(NodeId a, NodeId b);

  /// NIC counters for Table III (packets & bytes, both directions).
  metrics::NetCounters& counters(NodeId node);

  /// Snapshot of every delivery's lateness in ns since the last
  /// reset_lateness(): how long after its due time the delivery thread
  /// handed the message to its sink or inbox. The model's own error.
  Histogram lateness() const;
  void reset_lateness();

  /// Close all inboxes and stop the delivery thread.
  void shutdown();

 private:
  struct Node {
    std::string name;
    bool unlimited_nic = false;
    // Full-duplex NIC: independent budgets per direction (the paper's
    // leader sustains ~150K pkts/s out and ~145K in simultaneously).
    std::mutex nic_mu;
    std::uint64_t nic_out_busy_until_ns = 0;
    std::uint64_t nic_in_busy_until_ns = 0;
    metrics::NetCounters counters;
  };

  struct InFlight {
    std::uint64_t deliver_at_ns;
    std::uint64_t seq;  // tie-break for deterministic ordering
    NodeId to;
    SimMessage message;
    bool operator>(const InFlight& other) const {
      return deliver_at_ns != other.deliver_at_ns ? deliver_at_ns > other.deliver_at_ns
                                                  : seq > other.seq;
    }
  };

  using Inbox = BoundedBlockingQueue<SimMessage>;

  /// One (node, channel) endpoint. `sink` is written under sink_mu_ and
  /// inbox_mu_, and called only under sink_mu_; entries are never erased,
  /// so a Port's address is stable.
  struct Port {
    std::shared_ptr<Inbox> inbox;
    Sink sink;
  };

  /// Reserve NIC time for `packets`/`bytes` on `node`'s egress (out=true)
  /// or ingress path, no earlier than `earliest_ns`; returns when the NIC
  /// finishes handling the message.
  std::uint64_t reserve_nic(Node& node, bool out, std::uint64_t packets, std::uint64_t bytes,
                            std::uint64_t earliest_ns);

  /// Where one message of a batch goes: a sink, or else an inbox.
  struct Target {
    const Sink* sink = nullptr;
    std::shared_ptr<Inbox> inbox;
  };

  Port& port_locked(NodeId node, Channel channel);  // caller holds inbox_mu_
  std::shared_ptr<Inbox> inbox(NodeId node, Channel channel);
  void deliver_batch();
  void delivery_loop();

  Node& node_at(NodeId id);

  SimNetParams params_;
  std::vector<std::unique_ptr<Node>> nodes_;  // preallocated slots
  std::atomic<std::size_t> node_count_{0};
  std::mutex add_node_mu_;

  // Held by the delivery thread for each batch and by set_sink, so a
  // sink is swapped only between batches. Taken before inbox_mu_.
  std::mutex sink_mu_;
  std::mutex inbox_mu_;
  std::map<std::pair<NodeId, Channel>, Port> ports_;

  // Set once by the first set_fault and never cleared: until then send()
  // takes no fault_mu_.
  std::atomic<bool> any_faults_{false};
  std::mutex fault_mu_;
  std::map<std::pair<NodeId, NodeId>, FaultPlan> faults_;
  Rng fault_rng_;

  std::mutex flight_mu_;
  std::condition_variable flight_cv_;
  // Min-heap on deliver_at (std::greater via operator>).
  std::vector<InFlight> heap_;
  std::uint64_t next_seq_ = 0;
  // Written under flight_mu_ (the delivery thread waits on it); send()
  // also reads it without the lock to fail fast after shutdown.
  std::atomic<bool> stopping_{false};

  // The delivery thread's own: the batch it is delivering, where each
  // message goes and how late it got there.
  std::vector<InFlight> batch_;
  std::vector<Target> targets_;
  std::vector<std::uint64_t> late_ns_;

  mutable std::mutex lateness_mu_;
  Histogram lateness_;

  metrics::NamedThread delivery_thread_;
};

}  // namespace mcsmr::net
