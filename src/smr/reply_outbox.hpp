// The reply hand-off of one ClientIO thread (Fig 3's per-ClientIO-thread
// reply queue), shared by every ClientIo transport.
//
// Producers — the ServiceManager, or the affinity executor's workers, of
// any number of pipelines — push executed replies; the owning IO thread
// serializes and writes them. A burst of B replies costs B queue ops and
// one wake: a wake-pending flag makes the wake edge-triggered. Only the
// wake's delivery differs between transports (a SimNet inbox message
// that can fail on a full inbox, or an EventLoop task), so it is the one
// thing a transport supplies.
//
// The flag protocol (clear-fence-drain on the IO thread, push-fence-check
// on the producer) loses no reply: either the drain that follows a clear
// sees a push, or that push sees the clear and sends a fresh wake.
#pragma once

#include <atomic>
#include <functional>
#include <string>

#include "common/clock.hpp"
#include "common/queue.hpp"
#include "smr/client_proto.hpp"
#include "smr/shared_state.hpp"

namespace mcsmr::smr {

/// How long push() may wait on a full reply queue before dropping the
/// reply (counted in SharedState::dropped_replies; the client retry is
/// served from the reply cache). Bounding the wait keeps the producer out
/// of the pipeline's backpressure cycle.
inline constexpr std::uint64_t kReplyPushBudgetNs = 50 * kMillis;

class ReplyOutbox {
 public:
  /// Replies one IO thread may have queued.
  static constexpr std::size_t kQueueCap = 8192;

  /// Delivers one wake to the owning IO thread, which answers it with
  /// on_wake(). Returns false if the wake could not be delivered; the flag
  /// is then re-armed so a later push retries.
  using Wake = std::function<bool()>;

  ReplyOutbox(std::string name, SharedState& shared, Wake wake);

  ReplyOutbox(const ReplyOutbox&) = delete;
  ReplyOutbox& operator=(const ReplyOutbox&) = delete;

  /// Any thread: queue `reply` (waiting at most kReplyPushBudgetNs on a
  /// full queue, then dropping and counting it) and wake the IO thread
  /// unless a wake is already pending.
  void push(ClientReplyFrame reply);

  /// Owning IO thread, once per delivered wake: clear the flag, then
  /// deliver everything queued. Clearing BEFORE draining is what makes
  /// the protocol lossless — a reply pushed after the clear sends a fresh
  /// wake, a reply pushed before it is caught by this drain.
  template <typename Deliver>
  void on_wake(Deliver&& deliver) {
    wake_pending_.store(false, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    drain(deliver);
  }

  /// Owning IO thread: deliver whatever is queued, leaving the flag alone
  /// (an opportunistic drain; it never replaces a wake).
  template <typename Deliver>
  void drain(Deliver&& deliver) {
    while (auto reply = queue_.try_pop()) deliver(std::move(*reply));
  }

  /// Fail every push from now on, releasing a producer blocked on a full
  /// queue (shutdown: the IO thread is about to go away).
  void close() { queue_.close(); }

 private:
  BoundedBlockingQueue<ClientReplyFrame> queue_;
  SharedState& shared_;
  const Wake wake_;
  std::atomic<bool> wake_pending_{false};
};

}  // namespace mcsmr::smr
