// The replication protocol engine: view-based MultiPaxos with batching and
// pipelining, expressed as a *pure* event-driven state machine.
//
// The engine owns the replicated log and all protocol state and is driven
// exclusively by the Protocol thread (§V-C2: "this thread has exclusive
// write access to the bulk of the state of the ReplicationCore module").
// Inputs are messages, timer ticks and ready batches; outputs are Effects
// (messages to send, decisions to deliver, retransmissions to (un)arm).
// Because no thread or I/O concern leaks in here, the protocol is testable
// deterministically: property tests drive random schedules with drops,
// duplication and reordering and assert Paxos safety.
//
// Protocol sketch (one leader per view, view v led by replica v mod n):
//   * A replica that suspects the leader becomes a candidate for the next
//     view it leads and broadcasts Prepare(view, from=first_undecided).
//   * Acceptors at a lower view adopt it and answer PrepareOk with their
//     log suffix (accepted and decided entries).
//   * On a quorum of PrepareOk the candidate becomes leader: decided
//     entries are adopted, the highest-view accepted value is re-proposed
//     for every open instance, gaps are filled with no-op batches, and new
//     batches may then be proposed into the pipelining window (WND).
//   * Propose(view, instance, batch) implies the leader's own acceptance;
//     every acceptor that accepts answers with Accept(view, instance). Any
//     replica that holds the value accepted in view v and observes a
//     quorum of acceptances for v decides the instance — the leader thus
//     decides after its own accept plus quorum-1 Accepts, matching the
//     paper's "at least one Phase 2b from another replica" for n=3
//     (§VI-D2). At quorum 2 (n = 2, 3) a follower's quorum is complete on
//     the Propose alone, so its Accept goes to the proposer only: 2(n-1)
//     peer messages per instance. At quorum >= 3 followers still need
//     each other's votes and the Accept is broadcast: n(n-1) messages.
//   * Decided instances are delivered in log order. Lagging replicas pull
//     decided values via CatchupQuery; if the peer already truncated its
//     log, it answers with a SnapshotOffer (state transfer).
//
// Leader leases (Config::read_path == kLease; docs/ARCHITECTURE.md "Read
// path"): every heartbeat a follower accepts doubles as a lease grant —
// the follower promises not to vote for (or become) another leader for
// lease_duration_ns on its own clock, and echoes the heartbeat's send
// stamp back in a LeaseGrant. The leader converts each echo into a
// deadline on its own clock (echo + duration - drift margin) and holds
// the lease while a quorum of deadlines (its own continuous self-grant
// included) lies in the future: by quorum intersection no new leader can
// be elected while the lease is held, so a lease-holding leader may serve
// reads locally. Durations — never absolute remote timestamps — enter the
// arithmetic, so constant clock offsets cancel; rate drift over one lease
// window is covered by the margin.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "common/rand.hpp"
#include "paxos/log.hpp"
#include "paxos/messages.hpp"
#include "paxos/storage.hpp"

namespace mcsmr::paxos {

// ---------------------------------------------------------------------------
// Effects: everything the engine asks its host (the Protocol thread) to do.
// ---------------------------------------------------------------------------

struct SendTo {
  ReplicaId to = 0;
  Message message;
};
struct BroadcastMsg {
  Message message;
};
/// Deliver a decided batch to the service, strictly in instance order.
struct Deliver {
  InstanceId instance = 0;
  Bytes value;
};
/// Arm periodic re-broadcast of `message` until cancelled by key.
struct ScheduleRetransmit {
  std::uint64_t key = 0;
  Message message;
};
struct CancelRetransmit {
  std::uint64_t key = 0;
};
/// Drop every armed retransmission (on view adoption).
struct CancelAllRetransmits {};
/// Role/view transition notification (drives the failure detector).
struct ViewChanged {
  ViewId view = 0;
  bool is_leader = false;
};
/// Install a received snapshot before executing further deliveries.
struct InstallSnapshot {
  InstanceId next_instance = 0;
  Bytes state;
  Bytes reply_cache;
};

using Effect = std::variant<SendTo, BroadcastMsg, Deliver, ScheduleRetransmit,
                            CancelRetransmit, CancelAllRetransmits, ViewChanged,
                            InstallSnapshot>;

/// Retransmission keys: Propose keyed by instance, Prepare keyed by view.
inline std::uint64_t propose_retransmit_key(InstanceId instance) { return instance << 1; }
inline std::uint64_t prepare_retransmit_key(ViewId view) { return (view << 1) | 1; }

/// Snapshot data served to lagging peers; provided by the ServiceManager.
/// `state` is an immutable shared buffer: a partitioned replica stitches
/// ONE whole-replica manifest and hands the same allocation to all P
/// engines instead of copying it per pipeline.
struct SnapshotData {
  InstanceId next_instance = 0;
  std::shared_ptr<const Bytes> state = std::make_shared<const Bytes>();
  Bytes reply_cache;
};

inline std::shared_ptr<const Bytes> shared_state_bytes(Bytes bytes) {
  return std::make_shared<const Bytes>(std::move(bytes));
}

class Engine {
 public:
  /// `storage` persists acceptor/learner transitions (promise, accept,
  /// decide, snapshot checkpoints); nullptr means a private MemoryStorage
  /// (no durability — the pre-storage behavior, and the default for
  /// engine-only tests). The engine appends but never waits: the host
  /// gates outbound acks on LogStorage::durable_lsn (see ProtocolThread).
  Engine(const Config& config, ReplicaId self, LogStorage* storage = nullptr);

  // --- Inputs (single caller: the Protocol thread) -------------------------

  /// Initial kick: restores any state the storage recovered from disk
  /// (re-emitting InstallSnapshot/Deliver effects so the host rebuilds the
  /// service), then the leader of view 0 starts Phase 1.
  void start(std::vector<Effect>& out);

  void on_message(ReplicaId from, const Message& message, std::vector<Effect>& out);

  /// Offer a batch for ordering. Returns false (batch not consumed) unless
  /// this replica is leader with pipeline window room.
  bool on_batch(Bytes batch, std::vector<Effect>& out);

  /// Failure-detector suspicion of the current leader.
  void on_suspect_leader(std::vector<Effect>& out);

  /// Leader heartbeat tick (driven by the FailureDetector thread cadence).
  void on_heartbeat_timer(std::vector<Effect>& out);

  /// Periodic catch-up scan for gaps behind the leader.
  void on_catchup_timer(std::vector<Effect>& out);

  /// Host hook: latest local snapshot for answering deep catch-up queries.
  void set_snapshot_provider(std::function<std::optional<SnapshotData>()> provider) {
    snapshot_provider_ = std::move(provider);
  }

  /// Host notification that the service installed a local snapshot; the
  /// log below `next_instance` can be dropped.
  void on_local_snapshot(InstanceId next_instance);

  /// Override the lease clock (tests). Default: Config::local_clock_ns(),
  /// which already folds in the clock-fault injection knobs. Only the
  /// lease logic reads time; under read_path=consensus the engine stays a
  /// pure deterministic state machine.
  void set_clock(std::function<std::uint64_t()> clock) { clock_ = std::move(clock); }

  // --- Queries --------------------------------------------------------------

  ViewId view() const { return view_; }
  bool is_leader() const { return role_ == Role::kLeader; }
  ReplicaId leader() const { return config_.leader_of_view(view_); }
  InstanceId first_undecided() const { return log_.first_undecided(); }
  InstanceId next_instance() const { return next_instance_; }

  /// Open pipeline slots in use — the paper's "parallel ballots" (Table I).
  std::uint32_t window_in_use() const {
    return next_instance_ > log_.first_undecided()
               ? static_cast<std::uint32_t>(next_instance_ - log_.first_undecided())
               : 0;
  }
  bool window_available() const { return window_in_use() < config_.window_size; }

  const ReplicatedLog& log() const { return log_; }

  /// Local-clock deadline until which this replica, as leader, holds a
  /// quorum lease and may serve local reads. 0 unless a lease-mode leader
  /// with a live quorum of grants.
  std::uint64_t lease_until_ns() const { return lease_until_ns_; }
  /// Local-clock deadline of the grant this replica, as follower, extended
  /// to the current leader (0 when none active). Exposed for tests.
  std::uint64_t lease_granted_until_ns() const { return lease_granted_until_ns_; }

 private:
  enum class Role { kFollower, kCandidate, kLeader };

  // Message handlers.
  void handle_prepare(ReplicaId from, const Prepare& m, std::vector<Effect>& out);
  void handle_prepare_ok(ReplicaId from, const PrepareOk& m, std::vector<Effect>& out);
  void handle_propose(ReplicaId from, const Propose& m, std::vector<Effect>& out);
  void handle_accept(ReplicaId from, const Accept& m, std::vector<Effect>& out);
  void handle_heartbeat(ReplicaId from, const Heartbeat& m, std::vector<Effect>& out);
  void handle_catchup_query(ReplicaId from, const CatchupQuery& m, std::vector<Effect>& out);
  void handle_catchup_reply(ReplicaId from, const CatchupReply& m, std::vector<Effect>& out);
  void handle_snapshot_offer(ReplicaId from, const SnapshotOffer& m, std::vector<Effect>& out);
  void handle_lease_grant(ReplicaId from, const LeaseGrant& m);

  /// Adopt `view` as follower (higher view observed). No-op if not higher.
  void adopt_view(ViewId view, std::vector<Effect>& out);
  /// Become candidate for the next view this replica leads.
  void become_candidate(std::vector<Effect>& out);
  /// Phase 1 quorum reached: take leadership, re-propose open instances.
  void become_leader(std::vector<Effect>& out);
  /// Propose `value` for `instance` at the current view (leader only).
  void propose_now(InstanceId instance, Bytes value, std::vector<Effect>& out);
  /// Count an Accept vote; decides when a quorum certifies a held value.
  void record_vote(InstanceId instance, ViewId vote_view, ReplicaId voter,
                   std::vector<Effect>& out);
  void decide(InstanceId instance, std::vector<Effect>& out);
  /// Emit Deliver effects for the contiguous decided prefix.
  void try_deliver(std::vector<Effect>& out);

  // Durability (no-ops on non-persistent storage, so the memory path pays
  // nothing — not even the record construction).
  void persist_promise();
  void persist_accept(InstanceId instance, ViewId view, const Bytes& value);
  void persist_decide(InstanceId instance, const Bytes& value);
  /// Rewrite the durable log as {promise, snapshot, surviving entries} and
  /// drop everything older (storage GC, tied to service snapshots).
  void persist_checkpoint(const SnapshotData& snapshot);
  /// Rebuild log/view state from what the storage recovered on open.
  void restore_from_storage(std::vector<Effect>& out);

  static std::uint64_t bit(ReplicaId id) { return 1ull << id; }

  // Lease machinery (all no-ops under read_path=consensus).
  /// Grant holder sentinel: blocks every candidate (post-restart hold-off,
  /// when the pre-crash grant — if any — is unknowable).
  static constexpr ReplicaId kGrantNobody = ~ReplicaId{0};
  bool lease_enabled() const { return config_.read_path == ReadPath::kLease; }
  std::uint64_t local_now_ns() const {
    return clock_ ? clock_() : config_.local_clock_ns();
  }
  /// True while our grant to another replica's leadership is still live —
  /// voting for (or becoming) a different leader would break the lease.
  bool grant_blocks(ReplicaId candidate) const;
  /// Recompute lease_until_ns_ from the per-replica grant deadlines.
  void refresh_lease();
  void reset_lease_leader_state();

  Config config_;
  ReplicaId self_;
  ReplicatedLog log_;

  std::unique_ptr<LogStorage> owned_storage_;  ///< fallback MemoryStorage
  LogStorage* storage_;  ///< never null; owned_storage_ or host-provided

  ViewId view_ = 0;
  Role role_ = Role::kFollower;

  // Candidate (Phase 1) state.
  std::uint64_t prepare_ok_mask_ = 0;
  InstanceId prepare_from_ = 0;
  std::map<InstanceId, PrepareEntry> prepare_union_;

  // Leader state.
  InstanceId next_instance_ = 0;

  // Learner state.
  InstanceId next_deliver_ = 0;

  // Catch-up state.
  InstanceId known_leader_undecided_ = 0;
  std::function<std::optional<SnapshotData>()> snapshot_provider_;

  // Lease state (read_path=lease only; local-clock nanoseconds).
  std::function<std::uint64_t()> clock_;
  ReplicaId lease_granted_to_ = 0;            ///< follower: leader we granted to
  std::uint64_t lease_granted_until_ns_ = 0;  ///< follower: grant deadline
  std::vector<std::uint64_t> grant_deadline_;  ///< leader: per-replica echo deadlines
  std::uint64_t lease_until_ns_ = 0;           ///< leader: quorum lease deadline

  Rng rng_;
};

}  // namespace mcsmr::paxos
