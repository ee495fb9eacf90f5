#include "smr/failure_detector.hpp"

#include <chrono>

namespace mcsmr::smr {

namespace {
/// How long partitions may disagree about the leader before the stragglers
/// are forced to re-elect (cross-partition requests need all pipelines led
/// by the same replica to make progress).
constexpr std::uint64_t kPartitionAlignTimeoutNs = 400 * kMillis;
}  // namespace

FailureDetector::FailureDetector(const Config& config, ReplicaId self, ReplicaIo& replica_io,
                                 DispatcherQueue& dispatcher, SharedState& shared)
    : FailureDetector(config, self, replica_io,
                      std::vector<PartitionFeed>{PartitionFeed{&dispatcher, &shared}}) {}

FailureDetector::FailureDetector(const Config& config, ReplicaId self, ReplicaIo& replica_io,
                                 std::vector<PartitionFeed> feeds)
    : config_(config), self_(self), replica_io_(replica_io), feeds_(std::move(feeds)),
      last_suspected_view_(feeds_.size(), UINT64_MAX),
      last_suspect_push_ns_(feeds_.size(), 0),
      misaligned_since_ns_(feeds_.size(), 0) {}

FailureDetector::~FailureDetector() { stop(); }

void FailureDetector::start() {
  if (started_) return;
  started_ = true;
  stopping_ = false;
  // Grace period: nobody is suspected before traffic has had a chance.
  const std::uint64_t now = mono_ns();
  for (int peer = 0; peer < config_.n; ++peer) {
    liveness().last_recv_ns[static_cast<std::size_t>(peer)].store(
        now, std::memory_order_relaxed);
  }
  thread_ = metrics::NamedThread(config_.thread_name_prefix + "FailureDetector", [this] { run(); });
}

void FailureDetector::stop() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  started_ = false;
}

void FailureDetector::run() {
  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t tick_ns = config_.fd_heartbeat_interval_ns / 2;
  while (!stopping_) {
    lock.unlock();
    tick(mono_ns());
    lock.lock();
    metrics::WaitingTimer timer;
    cv_.wait_for(lock, std::chrono::nanoseconds(tick_ns), [this] { return stopping_; });
  }
}

void FailureDetector::tick(std::uint64_t now) {
  const bool heartbeat_due = now - last_heartbeat_ns_ >= config_.fd_heartbeat_interval_ns;
  if (heartbeat_due) last_heartbeat_ns_ = now;

  const std::uint64_t view0 = feeds_[0].shared->view.load(std::memory_order_relaxed);
  const ReplicaId leader0 = config_.leader_of_view(view0);

  for (std::size_t p = 0; p < feeds_.size(); ++p) {
    SharedState& shared = *feeds_[p].shared;
    const std::uint64_t view = shared.view.load(std::memory_order_relaxed);
    const bool is_leader = shared.is_leader.load(std::memory_order_relaxed);
    const auto leader = config_.leader_of_view(view);

    if (is_leader) {
      if (heartbeat_due) {
        // Built from published atomics; slight staleness is harmless since
        // both fields are monotonic. In lease mode the send stamp (this
        // node's warped clock) is what followers echo back as grants.
        const std::uint64_t sent_at =
            config_.read_path == ReadPath::kLease ? config_.local_clock_ns() : 0;
        replica_io_.broadcast(
            paxos::Heartbeat{view, shared.first_undecided.load(std::memory_order_relaxed),
                             sent_at},
            static_cast<std::uint32_t>(p));
      }
    } else if (leader != self_) {
      const std::uint64_t last = liveness().last_recv_ns[leader].load(std::memory_order_relaxed);
      // Stagger by rank distance so the next replica in line suspects
      // first and usually wins the election without dueling candidates.
      const std::uint64_t rank =
          (static_cast<std::uint64_t>(self_) + static_cast<std::uint64_t>(config_.n) -
           leader) %
          static_cast<std::uint64_t>(config_.n);
      const std::uint64_t deadline = config_.fd_suspect_timeout_ns +
                                     (rank - 1) * config_.fd_heartbeat_interval_ns * 2;
      // Re-raise a suspicion of the SAME view after another full deadline:
      // a lease-mode engine defers candidacy while its grant to the silent
      // leader is live, and would otherwise never hear about it again.
      const bool renew = now > last_suspect_push_ns_[p] &&
                         now - last_suspect_push_ns_[p] > deadline;
      if (now > last && now - last > deadline &&
          (last_suspected_view_[p] != view || renew)) {
        if (feeds_[p].dispatcher->try_push(SuspectEvent{view})) {
          last_suspected_view_[p] = view;
          last_suspect_push_ns_[p] = now;
        }
      }
    }

    // Leader alignment: cross-partition requests are ordered in EVERY
    // pipeline, so a stable split (partition p led by a different live
    // replica than partition 0) would wedge them forever. Force the
    // straggler to re-elect until the leaders converge on partition 0's.
    if (p > 0) {
      if (leader == leader0) {
        misaligned_since_ns_[p] = 0;
      } else if (misaligned_since_ns_[p] == 0) {
        misaligned_since_ns_[p] = now;
      } else if (now - misaligned_since_ns_[p] > kPartitionAlignTimeoutNs &&
                 last_suspected_view_[p] != view) {
        // Mark suspected only if the event actually landed: a dropped
        // try_push (full dispatcher) must retry on the next tick or this
        // replica would never nudge this view again.
        if (feeds_[p].dispatcher->try_push(SuspectEvent{view})) {
          last_suspected_view_[p] = view;
          misaligned_since_ns_[p] = now;  // re-arm: one nudge per timeout
        }
      }
    }
  }

  if (now - last_catchup_tick_ns_ >= config_.catchup_interval_ns) {
    last_catchup_tick_ns_ = now;
    for (auto& feed : feeds_) feed.dispatcher->try_push(CatchupTickEvent{});
  }
}

}  // namespace mcsmr::smr
