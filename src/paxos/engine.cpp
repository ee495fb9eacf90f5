#include "paxos/engine.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace mcsmr::paxos {

Engine::Engine(const Config& config, ReplicaId self, LogStorage* storage)
    : config_(config), self_(self),
      grant_deadline_(static_cast<std::size_t>(config.n), 0),
      rng_(0x5EEDull * (self + 1)) {
  if (storage == nullptr) {
    owned_storage_ = std::make_unique<MemoryStorage>();
    storage_ = owned_storage_.get();
  } else {
    storage_ = storage;
  }
}

void Engine::start(std::vector<Effect>& out) {
  restore_from_storage(out);
  if (config_.leader_of_view(0) == self_ && !grant_blocks(self_)) {
    become_candidate(out);
  }
}

// ---------------------------------------------------------------------------
// Durability + recovery
// ---------------------------------------------------------------------------

void Engine::persist_promise() {
  if (!storage_->persistent()) return;
  storage_->append(DurableRecord::promise(view_));
}

void Engine::persist_accept(InstanceId instance, ViewId view, const Bytes& value) {
  if (!storage_->persistent()) return;
  storage_->append(DurableRecord::accept(view, instance, Bytes(value)));
}

void Engine::persist_decide(InstanceId instance, const Bytes& value) {
  if (!storage_->persistent()) return;
  storage_->append(DurableRecord::decide(instance, Bytes(value)));
}

void Engine::persist_checkpoint(const SnapshotData& snapshot) {
  if (!storage_->persistent()) return;
  std::vector<DurableRecord> records;
  records.push_back(DurableRecord::promise(view_));
  records.push_back(DurableRecord::snapshot(snapshot.next_instance, Bytes(*snapshot.state),
                                            Bytes(snapshot.reply_cache)));
  // Entries above the cut survive the rewrite: their acceptances (and any
  // decisions not yet covered by the snapshot) are still protocol state.
  for (InstanceId id = log_.base(); id < log_.end(); ++id) {
    const LogEntry* e = log_.find(id);
    if (e == nullptr || !e->has_value()) continue;
    records.push_back(DurableRecord::accept(e->accepted_view, id, Bytes(e->value)));
    if (e->decided()) records.push_back(DurableRecord::decide(id, Bytes(e->value)));
  }
  storage_->checkpoint(records);
}

void Engine::restore_from_storage(std::vector<Effect>& out) {
  const RecoveredState& recovered = storage_->recovered();
  if (recovered.empty()) return;

  if (lease_enabled()) {
    // The crash lost whatever grant this replica had extended. Refuse every
    // candidate (ourselves included) for a full lease window so a live
    // leader's lease cannot be broken by our amnesia.
    lease_granted_to_ = kGrantNobody;
    lease_granted_until_ns_ = local_now_ns() + config_.lease_duration_ns;
  }

  if (recovered.snapshot) {
    const DurableRecord& snapshot = *recovered.snapshot;
    log_.truncate_before(snapshot.instance);
    next_deliver_ = snapshot.instance;
    out.push_back(InstallSnapshot{snapshot.instance, snapshot.value, snapshot.reply_cache});
  }
  for (const auto& [id, entry] : recovered.entries) {
    if (id < log_.base()) continue;
    LogEntry& e = log_.entry(id);
    e.state = InstanceState::kKnown;
    e.accepted_view = entry.accepted_view;
    e.value = entry.value;
    if (entry.decided) log_.decide(id, Bytes(entry.value));
  }
  if (recovered.promised_view > view_) {
    view_ = recovered.promised_view;
    role_ = Role::kFollower;
    out.push_back(ViewChanged{view_, false});
  }
  next_instance_ = std::max(next_instance_, log_.end());
  // Re-emit the decided prefix: the host replays it into the service,
  // which also rebuilds the reply cache (deterministic re-execution).
  try_deliver(out);
}

void Engine::on_message(ReplicaId from, const Message& message, std::vector<Effect>& out) {
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Prepare>) {
          handle_prepare(from, m, out);
        } else if constexpr (std::is_same_v<T, PrepareOk>) {
          handle_prepare_ok(from, m, out);
        } else if constexpr (std::is_same_v<T, Propose>) {
          handle_propose(from, m, out);
        } else if constexpr (std::is_same_v<T, Accept>) {
          handle_accept(from, m, out);
        } else if constexpr (std::is_same_v<T, Heartbeat>) {
          handle_heartbeat(from, m, out);
        } else if constexpr (std::is_same_v<T, CatchupQuery>) {
          handle_catchup_query(from, m, out);
        } else if constexpr (std::is_same_v<T, CatchupReply>) {
          handle_catchup_reply(from, m, out);
        } else if constexpr (std::is_same_v<T, SnapshotOffer>) {
          handle_snapshot_offer(from, m, out);
        } else if constexpr (std::is_same_v<T, LeaseGrant>) {
          handle_lease_grant(from, m);
        }
      },
      message);
}

// ---------------------------------------------------------------------------
// View changes (Phase 1)
// ---------------------------------------------------------------------------

void Engine::adopt_view(ViewId view, std::vector<Effect>& out) {
  if (view <= view_) return;  // callers adopt only strictly-higher views
  view_ = view;
  role_ = Role::kFollower;
  prepare_ok_mask_ = 0;
  prepare_union_.clear();
  reset_lease_leader_state();
  persist_promise();  // never answer a lower Prepare after a crash
  out.push_back(CancelAllRetransmits{});
  out.push_back(ViewChanged{view_, false});
}

void Engine::become_candidate(std::vector<Effect>& out) {
  // Smallest view above the current one that this replica leads. If we are
  // already candidate/leader of view_, move to the next one we lead (the
  // current leadership evidently failed to make progress).
  ViewId target = view_;
  do {
    ++target;
  } while (config_.leader_of_view(target) != self_);
  // Special case: initial start() — replica 0 may prepare view 0 itself.
  if (view_ == 0 && role_ == Role::kFollower && config_.leader_of_view(0) == self_ &&
      log_.first_undecided() == 0 && next_instance_ == 0) {
    target = 0;
  }

  view_ = target;
  role_ = Role::kCandidate;
  prepare_from_ = log_.first_undecided();
  prepare_ok_mask_ = bit(self_);
  prepare_union_.clear();
  reset_lease_leader_state();
  persist_promise();  // a candidacy is a promise to our own view

  // Seed the union with our own log suffix.
  for (InstanceId id = prepare_from_; id < log_.end(); ++id) {
    const LogEntry* e = log_.find(id);
    if (e == nullptr || !e->has_value()) continue;
    PrepareEntry entry{id, e->accepted_view, e->decided(), e->value};
    prepare_union_[id] = std::move(entry);
  }

  out.push_back(CancelAllRetransmits{});
  out.push_back(ViewChanged{view_, false});

  if (config_.n == 1) {
    become_leader(out);
    return;
  }
  Prepare prepare{view_, prepare_from_};
  out.push_back(BroadcastMsg{prepare});
  out.push_back(ScheduleRetransmit{prepare_retransmit_key(view_), prepare});
}

void Engine::handle_prepare(ReplicaId from, const Prepare& m, std::vector<Effect>& out) {
  if (m.view < view_) return;  // stale candidate; it will observe us later
  if (config_.leader_of_view(m.view) != from || from == self_) return;
  // Lease vote refusal: while our grant to the current leader is live,
  // answering would let a new leader commit inside the old lease. The
  // candidate retransmits its Prepare, so refusal is deferral, not loss.
  if (grant_blocks(from)) return;
  if (m.view > view_) adopt_view(m.view, out);
  // m.view == view_: idempotent re-reply to a retransmitted Prepare.

  PrepareOk ok;
  ok.view = m.view;
  ok.first_undecided = log_.first_undecided();
  const InstanceId start = std::max(m.from_instance, log_.base());
  for (InstanceId id = start; id < log_.end(); ++id) {
    const LogEntry* e = log_.find(id);
    if (e == nullptr || !e->has_value()) continue;
    ok.entries.push_back(PrepareEntry{id, e->accepted_view, e->decided(), e->value});
  }
  out.push_back(SendTo{from, std::move(ok)});
}

void Engine::handle_prepare_ok(ReplicaId from, const PrepareOk& m, std::vector<Effect>& out) {
  if (role_ != Role::kCandidate || m.view != view_) return;

  for (const auto& entry : m.entries) {
    auto [it, inserted] = prepare_union_.try_emplace(entry.instance, entry);
    if (inserted) continue;
    PrepareEntry& best = it->second;
    if (best.decided) continue;
    if (entry.decided || entry.accepted_view > best.accepted_view) best = entry;
  }

  prepare_ok_mask_ |= bit(from);
  if (__builtin_popcountll(prepare_ok_mask_) >= config_.quorum()) {
    become_leader(out);
  }
}

void Engine::become_leader(std::vector<Effect>& out) {
  role_ = Role::kLeader;
  reset_lease_leader_state();  // the lease is earned grant by grant, not by election
  out.push_back(CancelRetransmit{prepare_retransmit_key(view_)});

  // One past the highest instance any quorum member reported.
  const InstanceId stop =
      prepare_union_.empty() ? prepare_from_ : prepare_union_.rbegin()->first + 1;

  // Close every open instance the quorum reported: adopt decided values,
  // re-propose the highest-view accepted value, and fill gaps with no-ops
  // so the decided sequence has no holes.
  for (InstanceId id = prepare_from_; id < stop; ++id) {
    if (log_.is_decided(id)) continue;
    auto it = prepare_union_.find(id);
    if (it != prepare_union_.end() && it->second.decided) {
      // Re-propose so followers that missed the decision converge, then
      // decide locally without waiting for votes.
      propose_now(id, Bytes(it->second.value), out);
      decide(id, out);
      continue;
    }
    Bytes value =
        it != prepare_union_.end() ? it->second.value : encode_batch({});  // gap: no-op
    propose_now(id, std::move(value), out);
  }

  next_instance_ = std::max({next_instance_, stop, prepare_from_});
  prepare_union_.clear();
  out.push_back(ViewChanged{view_, true});
}

// ---------------------------------------------------------------------------
// Ordering (Phase 2)
// ---------------------------------------------------------------------------

bool Engine::on_batch(Bytes batch, std::vector<Effect>& out) {
  if (role_ != Role::kLeader || !window_available()) return false;
  const InstanceId instance = next_instance_++;
  propose_now(instance, std::move(batch), out);
  return true;
}

void Engine::propose_now(InstanceId instance, Bytes value, std::vector<Effect>& out) {
  LogEntry& e = log_.entry(instance);
  if (e.decided()) return;
  e.state = InstanceState::kKnown;
  e.accepted_view = view_;
  e.value = std::move(value);
  // Our proposal carries our own acceptance.
  if (view_ > e.vote_view) {
    e.vote_view = view_;
    e.vote_mask = 0;
  }
  e.vote_mask |= bit(self_);
  persist_accept(instance, view_, e.value);  // the proposal carries our acceptance

  Propose propose{view_, instance, e.value};
  out.push_back(ScheduleRetransmit{propose_retransmit_key(instance), propose});
  out.push_back(BroadcastMsg{std::move(propose)});
  if (next_instance_ <= instance) next_instance_ = instance + 1;

  // Single-replica cluster: our own vote is already a quorum.
  record_vote(instance, view_, self_, out);
}

void Engine::handle_propose(ReplicaId from, const Propose& m, std::vector<Effect>& out) {
  if (m.view < view_) return;
  if (config_.leader_of_view(m.view) != from) return;
  if (m.view > view_) adopt_view(m.view, out);

  if (m.instance < log_.base()) return;  // already snapshotted past it
  LogEntry& e = log_.entry(m.instance);
  if (!e.decided()) {
    if (m.view >= e.accepted_view) {
      e.state = InstanceState::kKnown;
      e.accepted_view = m.view;
      e.value = m.value;
      persist_accept(m.instance, m.view, e.value);
    }
  }

  // At quorum 2 the Propose already completes every follower's quorum
  // (leader's vote + its own), so only the proposer still needs our vote.
  // Larger quorums need the other followers' Accepts too: broadcast.
  if (config_.quorum() <= 2) {
    out.push_back(SendTo{from, Accept{m.view, m.instance}});
  } else {
    out.push_back(BroadcastMsg{Accept{m.view, m.instance}});
  }

  // The proposal implies the leader's acceptance; count both votes.
  record_vote(m.instance, m.view, from, out);
  record_vote(m.instance, m.view, self_, out);
}

void Engine::handle_accept(ReplicaId from, const Accept& m, std::vector<Effect>& out) {
  if (m.view < view_) return;
  if (m.view > view_) adopt_view(m.view, out);
  if (m.instance < log_.base()) return;
  record_vote(m.instance, m.view, from, out);
}

void Engine::record_vote(InstanceId instance, ViewId vote_view, ReplicaId voter,
                         std::vector<Effect>& out) {
  if (instance < log_.base()) return;
  LogEntry& e = log_.entry(instance);
  if (e.decided()) return;
  if (vote_view < e.vote_view) return;  // stale ballot
  if (vote_view > e.vote_view) {
    e.vote_view = vote_view;
    e.vote_mask = 0;
  }
  e.vote_mask |= bit(voter);
  // Decide only when we hold the value certified by this ballot.
  if (e.vote_count() >= config_.quorum() && e.has_value() && e.accepted_view == e.vote_view) {
    decide(instance, out);
  }
}

void Engine::decide(InstanceId instance, std::vector<Effect>& out) {
  const LogEntry* e = log_.find(instance);
  if (e == nullptr) return;
  Bytes value = e->value;
  if (!log_.decide(instance, std::move(value))) return;
  persist_decide(instance, log_.find(instance)->value);
  out.push_back(CancelRetransmit{propose_retransmit_key(instance)});
  try_deliver(out);
}

void Engine::try_deliver(std::vector<Effect>& out) {
  while (next_deliver_ < log_.end() && log_.is_decided(next_deliver_)) {
    const LogEntry* e = log_.find(next_deliver_);
    if (e == nullptr) break;  // truncated: snapshot install moves the cursor
    out.push_back(Deliver{next_deliver_, e->value});
    ++next_deliver_;
  }
}

// ---------------------------------------------------------------------------
// Liveness: heartbeats, suspicion, catch-up
// ---------------------------------------------------------------------------

void Engine::on_heartbeat_timer(std::vector<Effect>& out) {
  if (role_ != Role::kLeader) return;
  const std::uint64_t sent_at = lease_enabled() ? local_now_ns() : 0;
  out.push_back(BroadcastMsg{Heartbeat{view_, log_.first_undecided(), sent_at}});
  if (lease_enabled()) refresh_lease();
}

void Engine::handle_heartbeat(ReplicaId from, const Heartbeat& m, std::vector<Effect>& out) {
  if (m.view < view_) return;
  if (config_.leader_of_view(m.view) != from) return;
  if (m.view > view_) adopt_view(m.view, out);
  known_leader_undecided_ = std::max(known_leader_undecided_, m.first_undecided);
  if (lease_enabled() && m.sent_at_ns != 0) {
    // Accepting the heartbeat grants the lease: promise not to vote for
    // anyone else for a lease window on OUR clock, and echo the stamp so
    // the leader can bound the grant on ITS clock.
    lease_granted_to_ = from;
    lease_granted_until_ns_ =
        std::max(lease_granted_until_ns_, local_now_ns() + config_.lease_duration_ns);
    out.push_back(SendTo{from, LeaseGrant{view_, m.sent_at_ns}});
  }
}

void Engine::on_suspect_leader(std::vector<Effect>& out) {
  if (role_ == Role::kLeader) return;  // we do not suspect ourselves
  // Our own grant also binds ourselves: hold candidacy until it expires
  // (the failure detector keeps re-raising suspicion, so only deferral).
  if (grant_blocks(self_)) return;
  become_candidate(out);
}

void Engine::handle_lease_grant(ReplicaId from, const LeaseGrant& m) {
  if (!lease_enabled() || role_ != Role::kLeader || m.view != view_) return;
  if (from >= grant_deadline_.size()) return;
  const std::uint64_t duration = config_.lease_duration_ns;
  const std::uint64_t margin = std::min(config_.lease_drift_margin_ns, duration);
  // The grantor holds its promise for `duration` on its clock from heartbeat
  // RECEIPT; converting from our SEND stamp is strictly conservative, and
  // the margin absorbs clock-rate drift over the window.
  grant_deadline_[from] =
      std::max(grant_deadline_[from], m.echo_sent_at_ns + (duration - margin));
  refresh_lease();
}

bool Engine::grant_blocks(ReplicaId candidate) const {
  if (!lease_enabled()) return false;
  // A leader whose computed lease is live is serving local reads on the
  // promise that no one else can be elected meanwhile; it must hold that
  // promise itself too. It receives no heartbeats, so it carries no grant
  // state — without this check its vote alone could complete a candidate's
  // quorum (n=3: candidate + old leader) inside the old lease.
  if (role_ == Role::kLeader && candidate != self_ && local_now_ns() < lease_until_ns_) {
    return true;
  }
  if (lease_granted_until_ns_ == 0) return false;
  if (candidate == lease_granted_to_) return false;
  return local_now_ns() < lease_granted_until_ns_;
}

void Engine::refresh_lease() {
  if (!lease_enabled() || role_ != Role::kLeader) {
    lease_until_ns_ = 0;
    return;
  }
  // The lease holds while a QUORUM of replicas still refuses other
  // candidates: our own (continuous, margin-free) self-grant plus the
  // quorum'th-freshest follower echo.
  std::vector<std::uint64_t> deadlines = grant_deadline_;
  deadlines[self_] = local_now_ns() + config_.lease_duration_ns;
  const auto nth = deadlines.begin() + (config_.quorum() - 1);
  std::nth_element(deadlines.begin(), nth, deadlines.end(), std::greater<>());
  lease_until_ns_ = *nth;
}

void Engine::reset_lease_leader_state() {
  lease_until_ns_ = 0;
  std::fill(grant_deadline_.begin(), grant_deadline_.end(), 0);
}

void Engine::on_catchup_timer(std::vector<Effect>& out) {
  // How far the cluster has provably progressed beyond us.
  InstanceId target = known_leader_undecided_;
  // Anything we voted on / saw proposed above first_undecided also counts.
  target = std::max(target, log_.end());
  const InstanceId start = log_.first_undecided();
  if (target <= start) return;
  if (role_ == Role::kLeader) return;  // the leader closes its own gaps

  constexpr std::size_t kMaxPerQuery = 256;
  CatchupQuery query;
  query.from_instance = start;
  for (InstanceId id = start; id < target && query.instances.size() < kMaxPerQuery; ++id) {
    if (!log_.is_decided(id)) query.instances.push_back(id);
  }
  if (query.instances.empty()) return;

  // Ask a random other replica; decided values are everywhere by quorum,
  // and spreading queries keeps the leader off the critical path.
  ReplicaId peer = self_;
  while (peer == self_) {
    peer = static_cast<ReplicaId>(rng_.uniform(static_cast<std::uint64_t>(config_.n)));
  }
  out.push_back(SendTo{peer, std::move(query)});
}

void Engine::handle_catchup_query(ReplicaId from, const CatchupQuery& m,
                                  std::vector<Effect>& out) {
  // If the request reaches below our log base we cannot serve values;
  // offer a snapshot instead (state transfer).
  if (m.from_instance < log_.base() && snapshot_provider_) {
    if (auto snapshot = snapshot_provider_()) {
      out.push_back(SendTo{
          from, SnapshotOffer{snapshot->next_instance, *snapshot->state,
                              snapshot->reply_cache}});
      return;
    }
  }

  CatchupReply reply;
  for (InstanceId id : m.instances) {
    const LogEntry* e = log_.find(id);
    if (e != nullptr && e->decided()) {
      reply.decided.push_back(CatchupDecided{id, e->value});
    }
  }
  if (!reply.decided.empty()) out.push_back(SendTo{from, std::move(reply)});
}

void Engine::handle_catchup_reply(ReplicaId /*from*/, const CatchupReply& m,
                                  std::vector<Effect>& out) {
  for (const auto& item : m.decided) {
    if (item.instance < log_.base()) continue;
    LogEntry& e = log_.entry(item.instance);
    if (e.decided()) continue;
    e.state = InstanceState::kKnown;
    e.value = item.value;
    decide(item.instance, out);
  }
}

void Engine::handle_snapshot_offer(ReplicaId /*from*/, const SnapshotOffer& m,
                                   std::vector<Effect>& out) {
  if (m.next_instance <= log_.first_undecided()) return;  // nothing new
  out.push_back(InstallSnapshot{m.next_instance, m.state, m.reply_cache});
  log_.truncate_before(m.next_instance);
  if (next_deliver_ < m.next_instance) next_deliver_ = m.next_instance;
  if (next_instance_ < m.next_instance) next_instance_ = m.next_instance;
  // The installed snapshot replaces the truncated prefix on disk too.
  persist_checkpoint(SnapshotData{m.next_instance, shared_state_bytes(Bytes(m.state)),
                                  m.reply_cache});
  try_deliver(out);
}

void Engine::on_local_snapshot(InstanceId next_instance) {
  // Keep a short tail above the snapshot so common catch-up queries can
  // still be served from the log instead of shipping full state.
  if (next_instance > log_.base()) log_.truncate_before(next_instance);
  // Compact the durable log against the freshly captured snapshot. Without
  // a provider the on-disk prefix must stay (it is the only copy of the
  // decided history), so skip GC rather than lose state.
  if (storage_->persistent() && snapshot_provider_) {
    if (auto snapshot = snapshot_provider_()) {
      if (snapshot->next_instance >= next_instance) persist_checkpoint(*snapshot);
    }
  }
}

}  // namespace mcsmr::paxos
