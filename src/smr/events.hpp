// Queue payload types and queue aliases for the threading architecture.
//
// These are the queues of Fig 3:
//   RequestQueue     ClientIO threads -> Batcher
//   ProposalQueue    Batcher -> Protocol
//   DispatcherQueue  everyone -> Protocol (its event loop input)
//   DecisionQueue    Protocol -> ServiceManager ("Replica" thread)
//   SendQueue        Protocol/FD/Retransmitter -> ReplicaIOSnd (per peer;
//                    only over a transport that may block, see replica_io.hpp)
// plus the per-ClientIO-thread reply queues, which live inside the
// ClientIo implementations (EventLoop::post for TCP, SimNet inject for
// the in-process transport).
#pragma once

#include <variant>

#include "common/config.hpp"
#include "common/queue.hpp"
#include "paxos/messages.hpp"

namespace mcsmr::smr {

// --- DispatcherQueue events -------------------------------------------------

/// A decoded message from another replica (pushed by ReplicaIo::on_frame:
/// on SimNet's delivery thread, over TCP on a ReplicaIORcv thread).
struct PeerMessageEvent {
  ReplicaId from = 0;
  paxos::Message message;
};
/// The failure detector suspects the current leader.
struct SuspectEvent {
  paxos::ViewId suspected_view = 0;
};
/// The Batcher put a batch on the ProposalQueue (wake-up hint; the batch
/// itself travels on the ProposalQueue to preserve its flow-control bound).
struct ProposalReadyEvent {};
/// Periodic catch-up scan trigger.
struct CatchupTickEvent {};
/// The ServiceManager took a local snapshot; the log below can be pruned.
struct LocalSnapshotEvent {
  paxos::InstanceId next_instance = 0;
};

using DispatchEvent = std::variant<PeerMessageEvent, SuspectEvent, ProposalReadyEvent,
                                   CatchupTickEvent, LocalSnapshotEvent>;

// --- DecisionQueue events ----------------------------------------------------

/// An ordered batch ready for execution.
struct Decision {
  paxos::InstanceId instance = 0;
  Bytes batch;
};
/// A snapshot received from a peer; install before executing further.
struct SnapshotInstallEvent {
  paxos::InstanceId next_instance = 0;
  Bytes state;
  Bytes reply_cache;
};
/// Partitioned mode only: a sibling partition requested a cross-partition
/// rendezvous (snapshot capture/install); wake an idle ServiceManager so
/// it arrives at the barrier. Carries no data — the barrier holds the work.
struct BarrierNudgeEvent {};

using DecisionEvent = std::variant<Decision, SnapshotInstallEvent, BarrierNudgeEvent>;

// --- Queue aliases ------------------------------------------------------------

using RequestQueue = BoundedBlockingQueue<paxos::Request>;
/// Batcher -> Protocol: the hottest hand-off (paper cap 20, Table I).
using ProposalQueue = BoundedBlockingQueue<Bytes>;
using DispatcherQueue = BoundedBlockingQueue<DispatchEvent>;
inline constexpr std::size_t kDispatcherQueueCap = 8192;
using DecisionQueue = BoundedBlockingQueue<DecisionEvent>;
inline constexpr std::size_t kDecisionQueueCap = 2048;
using SendQueue = BoundedBlockingQueue<Bytes>;  // encoded frames, one per peer

}  // namespace mcsmr::smr
