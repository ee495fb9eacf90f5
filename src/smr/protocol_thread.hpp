// Protocol thread (§V-C2): the single event loop at the heart of the
// ReplicationCore, and the only thread that touches the paxos::Engine and
// the replicated log.
//
// Input: the DispatcherQueue (peer messages, suspicions, ticks) plus the
// ProposalQueue (ready batches, pulled whenever this replica leads with
// pipeline room — the ProposalReadyEvent on the dispatcher is just a
// wake-up). Output: engine Effects fanned out to the ReplicaIO send
// queues, the Retransmitter, and the DecisionQueue.
//
// After every event the thread publishes (view, is_leader, window_in_use,
// first_undecided) to the SharedState atomics — the "volatile variables"
// other module threads read without locks.
//
// Durability gate: the engine appends promise/accept/decide records to the
// LogStorage as it mutates state, but never blocks on IO. This thread is
// where durability meets the wire — an outbound protocol message whose
// preceding log records are not yet durable is parked in a FIFO and
// released once LogStorage::durable_lsn() catches up (group commit runs on
// the storage's flush thread). With MemoryStorage every append is
// instantly durable and the gate never queues anything, keeping the
// memory path byte-identical to the pre-durability code. Deliver effects
// are NOT gated (bounded pre-execution): a decided value is certified by
// quorum acceptances, each durable on its acceptor before that acceptor's
// vote left the machine, so the decision survives any single crash — and
// a full-cluster crash can re-derive it in Phase 1 from the durable
// acceptances. The proposer additionally stops pulling new batches when
// more than kPreexecWindow (protocol_thread.cpp) records await durability.
#pragma once

#include <atomic>
#include <deque>

#include "metrics/thread_stats.hpp"
#include "paxos/engine.hpp"
#include "smr/events.hpp"
#include "smr/replica_io.hpp"
#include "smr/reply_cache.hpp"
#include "smr/retransmitter.hpp"
#include "smr/shared_state.hpp"

namespace mcsmr::smr {

class ProtocolThread {
 public:
  ProtocolThread(const Config& config, paxos::Engine& engine, paxos::LogStorage& storage,
                 DispatcherQueue& dispatcher, ProposalQueue& proposals,
                 DecisionQueue& decisions, PartitionIo replica_io,
                 Retransmitter& retransmitter, SharedState& shared);
  ~ProtocolThread();

  void start();
  void stop();

 private:
  /// One outbound message parked until the log is durable through `lsn`.
  struct GatedSend {
    paxos::Lsn lsn = 0;
    bool broadcast = false;
    ReplicaId to = 0;
    paxos::Message message;
  };

  void run();
  void handle(DispatchEvent& event);
  void pull_proposals();
  void apply_effects();
  void send_or_gate(bool broadcast, ReplicaId to, paxos::Message&& message);
  void release_durable_sends();
  void publish();

  // Owned copy, not a reference: a stored Config& tied this object's
  // lifetime to the constructor argument (the PR-6 dangling-Config bug
  // class); lint_invariants.py forbids storing the parameter by ref.
  const Config config_;
  paxos::Engine& engine_;
  paxos::LogStorage& storage_;
  std::deque<GatedSend> gated_;
  DispatcherQueue& dispatcher_;
  ProposalQueue& proposals_;
  DecisionQueue& decisions_;
  PartitionIo replica_io_;
  Retransmitter& retransmitter_;
  SharedState& shared_;

  std::vector<paxos::Effect> effects_;
  std::atomic<bool> running_{false};
  metrics::NamedThread thread_;
};

}  // namespace mcsmr::smr
