// FailureDetector thread (§V-C3).
//
// A dedicated thread gives much better timing guarantees than folding
// timers into the event loop. Behavior:
//   * when this replica leads (published atomic), broadcast a heartbeat
//     carrying (view, first_undecided) every heartbeat interval — built
//     from the Protocol thread's published atomics, so the FD never
//     touches protocol state;
//   * otherwise watch the leader's last_recv timestamp (written directly
//     by ReplicaIo::on_frame — on SimNet's delivery thread or a TCP
//     ReplicaIORcv thread — with no notification; safe because
//     timestamps only increase) and push a SuspectEvent when it goes
//     stale. Suspicion is staggered by rank distance from the leader so
//     the next-in-line replica usually wins the election without dueling;
//   * doubles as the housekeeping timer: emits CatchupTickEvents.
//
// Partitioned replicas run ONE FailureDetector over all pipelines: each
// partition elects per its own view, but liveness evidence (any traffic
// from a peer) is replica-level. The FD additionally keeps the pipelines'
// leaders ALIGNED: cross-partition requests need every partition led by
// the same replica to make progress, so a partition whose leader disagrees
// with partition 0's for longer than kPartitionAlignTimeoutNs (400 ms) is
// suspected into a new election until the leaders converge.
#pragma once

#include <condition_variable>
#include <mutex>
#include <vector>

#include "metrics/thread_stats.hpp"
#include "smr/events.hpp"
#include "smr/replica_io.hpp"
#include "smr/shared_state.hpp"

namespace mcsmr::smr {

class FailureDetector {
 public:
  struct PartitionFeed {
    DispatcherQueue* dispatcher = nullptr;
    SharedState* shared = nullptr;
  };

  /// Single-pipeline convenience (legacy signature).
  FailureDetector(const Config& config, ReplicaId self, ReplicaIo& replica_io,
                  DispatcherQueue& dispatcher, SharedState& shared);
  /// One feed per partition, in index order; feeds[0].shared also hosts
  /// the replica-level liveness timestamps.
  FailureDetector(const Config& config, ReplicaId self, ReplicaIo& replica_io,
                  std::vector<PartitionFeed> feeds);
  ~FailureDetector();

  void start();
  void stop();

 private:
  void run();
  void tick(std::uint64_t now);
  SharedState& liveness() const { return *feeds_.front().shared; }

  // Owned copy, not a reference: a stored Config& tied this object's
  // lifetime to the constructor argument (the PR-6 dangling-Config bug
  // class); lint_invariants.py forbids storing the parameter by ref.
  const Config config_;
  const ReplicaId self_;
  ReplicaIo& replica_io_;
  std::vector<PartitionFeed> feeds_;

  std::uint64_t last_heartbeat_ns_ = 0;
  std::uint64_t last_catchup_tick_ns_ = 0;
  // Per partition: suspect each view once per suspect deadline (lease-mode
  // engines may defer acting on a suspicion while a grant is live); when a
  // partition's leader first diverged from partition 0's (0 = aligned).
  std::vector<std::uint64_t> last_suspected_view_;
  std::vector<std::uint64_t> last_suspect_push_ns_;
  std::vector<std::uint64_t> misaligned_since_ns_;

  // lint:allow(raw-sync): timed sleep-with-early-wake of a periodic
  // thread, not a data hand-off edge — no queue semantics apply.
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool started_ = false;
  metrics::NamedThread thread_;
};

}  // namespace mcsmr::smr
