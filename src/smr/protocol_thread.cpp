#include "smr/protocol_thread.hpp"

namespace mcsmr::smr {

namespace {

/// Pre-execution window: how many log records the proposer may run ahead
/// of the durable point before it stops pulling proposals (libpaxos'
/// proposer_preexec_window; never reached with memory storage).
constexpr std::uint64_t kPreexecWindow = 128;

}  // namespace

ProtocolThread::ProtocolThread(const Config& config, paxos::Engine& engine,
                               paxos::LogStorage& storage, DispatcherQueue& dispatcher,
                               ProposalQueue& proposals, DecisionQueue& decisions,
                               PartitionIo replica_io, Retransmitter& retransmitter,
                               SharedState& shared)
    : config_(config), engine_(engine), storage_(storage), dispatcher_(dispatcher),
      proposals_(proposals), decisions_(decisions), replica_io_(replica_io),
      retransmitter_(retransmitter), shared_(shared) {}

ProtocolThread::~ProtocolThread() { stop(); }

void ProtocolThread::start() {
  if (running_.exchange(true)) return;
  thread_ = metrics::NamedThread(config_.thread_name_prefix + "Protocol", [this] { run(); });
}

void ProtocolThread::stop() {
  running_.store(false);
  dispatcher_.close();  // wakes the loop
  thread_.join();
}

void ProtocolThread::run() {
  engine_.start(effects_);
  apply_effects();
  publish();

  while (running_.load(std::memory_order_relaxed)) {
    // With acks parked behind the durability gate, poll on the group-commit
    // cadence instead of the idle 2 ms tick — fsync completion has no event.
    const std::uint64_t timeout = gated_.empty() ? 2 * kMillis : 200 * kMicros;
    auto event = dispatcher_.pop_for(timeout);
    if (event.has_value()) {
      handle(*event);
      // Drain whatever else is ready before considering proposals, so
      // protocol messages keep priority over new work.
      while (auto more = dispatcher_.try_pop()) handle(*more);
    }
    release_durable_sends();
    pull_proposals();
    publish();
  }
}

void ProtocolThread::handle(DispatchEvent& event) {
  std::visit(
      [&](auto& e) {
        using T = std::decay_t<decltype(e)>;
        if constexpr (std::is_same_v<T, PeerMessageEvent>) {
          engine_.on_message(e.from, e.message, effects_);
        } else if constexpr (std::is_same_v<T, SuspectEvent>) {
          // Only act if the suspicion is about the current view; a view
          // change after the FD pushed the event supersedes it.
          if (e.suspected_view == engine_.view()) {
            engine_.on_suspect_leader(effects_);
          }
        } else if constexpr (std::is_same_v<T, ProposalReadyEvent>) {
          // Wake-up only; pull_proposals() does the work.
        } else if constexpr (std::is_same_v<T, CatchupTickEvent>) {
          engine_.on_catchup_timer(effects_);
        } else if constexpr (std::is_same_v<T, LocalSnapshotEvent>) {
          engine_.on_local_snapshot(e.next_instance);
        }
      },
      event);
  apply_effects();
}

void ProtocolThread::pull_proposals() {
  // Pre-execution window: keep proposing ahead of the durable point, but
  // only so far — a proposer unboundedly ahead of its fsyncs would turn a
  // crash into mass client-visible retraction.
  while (engine_.is_leader() && engine_.window_available() &&
         storage_.appended_lsn() - storage_.durable_lsn() < kPreexecWindow) {
    auto batch = proposals_.try_pop();
    if (!batch.has_value()) break;
    engine_.on_batch(std::move(*batch), effects_);
    apply_effects();
  }
}

void ProtocolThread::apply_effects() {
  // Publish BEFORE any effect leaves this thread: once a Propose (or the
  // local Deliver) is visible outside, a follower may decide, execute and
  // ack the client within two network hops — any later lease read must
  // already see a proposal_frontier covering that instance, or it could
  // serve the old value while this replica's executor still lags.
  publish();
  for (auto& effect : effects_) {
    std::visit(
        [&](auto& e) {
          using T = std::decay_t<decltype(e)>;
          if constexpr (std::is_same_v<T, paxos::SendTo>) {
            send_or_gate(/*broadcast=*/false, e.to, std::move(e.message));
          } else if constexpr (std::is_same_v<T, paxos::BroadcastMsg>) {
            send_or_gate(/*broadcast=*/true, 0, std::move(e.message));
          } else if constexpr (std::is_same_v<T, paxos::Deliver>) {
            shared_.decided_instances.fetch_add(1, std::memory_order_relaxed);
            decisions_.push(Decision{e.instance, std::move(e.value)});
          } else if constexpr (std::is_same_v<T, paxos::ScheduleRetransmit>) {
            retransmitter_.schedule(e.key, std::move(e.message));
          } else if constexpr (std::is_same_v<T, paxos::CancelRetransmit>) {
            retransmitter_.cancel(e.key);
          } else if constexpr (std::is_same_v<T, paxos::CancelAllRetransmits>) {
            retransmitter_.cancel_all();
          } else if constexpr (std::is_same_v<T, paxos::ViewChanged>) {
            shared_.view.store(e.view, std::memory_order_relaxed);
            shared_.is_leader.store(e.is_leader, std::memory_order_relaxed);
            if (!e.is_leader) {
              // Batches staged for a leadership we no longer hold would
              // wedge the bounded ProposalQueue; drop them — clients
              // retry against the new leader, execution-time dedup keeps
              // at-most-once.
              while (auto stale = proposals_.try_pop()) {
                shared_.dropped_batches.fetch_add(1, std::memory_order_relaxed);
              }
            }
          } else if constexpr (std::is_same_v<T, paxos::InstallSnapshot>) {
            decisions_.push(SnapshotInstallEvent{e.next_instance, std::move(e.state),
                                                 std::move(e.reply_cache)});
          }
        },
        effect);
  }
  effects_.clear();
}

void ProtocolThread::send_or_gate(bool broadcast, ReplicaId to, paxos::Message&& message) {
  // A message may acknowledge protocol state (a promise in PrepareOk, an
  // acceptance in Accept/Propose) that the engine just appended; it must
  // not leave this replica before those records are on disk. Durable-now
  // is the common case (memory storage: always; segment storage: whenever
  // group commit has caught up) and sends straight through. Otherwise the
  // message queues behind every earlier gated send, preserving order.
  const paxos::Lsn appended = storage_.appended_lsn();
  if (gated_.empty() && storage_.durable_lsn() >= appended) {
    if (broadcast) {
      replica_io_.broadcast(message);
    } else {
      replica_io_.send(to, message);
    }
    return;
  }
  gated_.push_back(GatedSend{appended, broadcast, to, std::move(message)});
}

void ProtocolThread::release_durable_sends() {
  while (!gated_.empty() && storage_.durable_lsn() >= gated_.front().lsn) {
    GatedSend& send = gated_.front();
    if (send.broadcast) {
      replica_io_.broadcast(send.message);
    } else {
      replica_io_.send(send.to, send.message);
    }
    gated_.pop_front();
  }
}

void ProtocolThread::publish() {
  shared_.window_in_use.store(engine_.window_in_use(), std::memory_order_relaxed);
  shared_.first_undecided.store(engine_.first_undecided(), std::memory_order_relaxed);
  shared_.proposal_frontier.store(engine_.next_instance(), std::memory_order_relaxed);
  shared_.lease_until_ns.store(engine_.lease_until_ns(), std::memory_order_release);
}

}  // namespace mcsmr::smr
