// Cross-module shared state under the "no-lock rule" (§V-C).
//
// The ReplicationCore threads coordinate only through queues and the
// atomics below — never locks. Each field has exactly one writer:
//   view/is_leader/window_in_use/first_undecided — Protocol thread
//     (the paper's "volatile variable" the Batcher reads, §V-C1);
//   last_recv_ns[p] — whichever thread receives peer p's frames
//     (ReplicaIo::on_frame: SimNet's delivery thread, or the TCP
//     ReplicaIORcv-p thread); read by the FailureDetector without
//     notifications, which is safe because timestamps only increase
//     (§V-C3);
//   counters — their producing threads; read by benches.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/clock.hpp"
#include "common/config.hpp"

namespace mcsmr::smr {

struct SharedState {
  explicit SharedState(int n)
      : last_recv_ns(std::make_unique<std::atomic<std::uint64_t>[]>(
            static_cast<std::size_t>(n))),
        peers(n) {
    const std::uint64_t now = mono_ns();
    for (int i = 0; i < n; ++i) last_recv_ns[static_cast<std::size_t>(i)].store(now);
  }

  // Written by the Protocol thread, read by Batcher / FD / ClientIO.
  std::atomic<std::uint64_t> view{0};
  std::atomic<bool> is_leader{false};
  std::atomic<std::uint32_t> window_in_use{0};
  std::atomic<std::uint64_t> first_undecided{0};
  /// First instance NOT yet proposed by this leader — the lease read
  /// path's read point. Published BEFORE any Propose leaves the Protocol
  /// thread, so it covers every write any replica could have acked: all
  /// replicas are learners and a follower can decide — and reply to the
  /// client — one network hop BEFORE the leader collects its own quorum
  /// (see request_gate.hpp), so the leader's first_undecided is NOT a
  /// safe read point; its proposal frontier is.
  std::atomic<std::uint64_t> proposal_frontier{0};
  /// Local-clock deadline of the leader lease (0 = no lease). Read by the
  /// ClientIO threads' lease read fast-path (see RequestGate::admit).
  std::atomic<std::uint64_t> lease_until_ns{0};

  // Written by the ServiceManager (Replica thread), read by ClientIO.
  /// First instance NOT yet applied to the service — the read-point bound
  /// of the lease read path (release/acquire paired with service state).
  std::atomic<std::uint64_t> executed_frontier{0};

  // Written by ReplicaIo::on_frame (one receiving thread per slot), read
  // by the FD.
  std::unique_ptr<std::atomic<std::uint64_t>[]> last_recv_ns;
  int peers;

  // Counters for benches/monitoring.
  std::atomic<std::uint64_t> executed_requests{0};
  std::atomic<std::uint64_t> decided_instances{0};
  /// Peer frames dropped: the SendQueue was full, or the link was down
  /// when the frame was written (by the sender or by ReplicaIOSnd), or a
  /// received frame found its DispatcherQueue full or closed.
  std::atomic<std::uint64_t> dropped_peer_frames{0};
  /// Peer frames written on the sending module's own thread, with no
  /// ReplicaIOSnd hop (never-blocking transport, see ReplicaIo).
  std::atomic<std::uint64_t> inline_peer_frames{0};
  std::atomic<std::uint64_t> dropped_batches{0};       ///< leadership-loss drains
  std::atomic<std::uint64_t> redirected_requests{0};
  std::atomic<std::uint64_t> cached_replies{0};
  /// Edge-triggered wake-ups sent to ClientIO threads (ReplyOutbox).
  /// replies/wakeups is the reply-batching factor of the hand-off.
  std::atomic<std::uint64_t> reply_wakeups{0};
  /// Replies dropped after the bounded push wait (reply queue full for
  /// kReplyPushBudgetNs; ReplyOutbox). The drop keeps the ServiceManager
  /// out of the backpressure cycle — the client retry is answered from
  /// the reply cache, preserving exactly-once.
  std::atomic<std::uint64_t> dropped_replies{0};
  /// Lease read path: reads served locally without a Paxos instance, and
  /// reads that fell back to consensus (no lease / frontier lag).
  std::atomic<std::uint64_t> lease_reads{0};
  std::atomic<std::uint64_t> lease_read_fallbacks{0};
};

}  // namespace mcsmr::smr
