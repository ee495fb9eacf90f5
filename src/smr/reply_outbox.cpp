#include "smr/reply_outbox.hpp"

namespace mcsmr::smr {

ReplyOutbox::ReplyOutbox(std::string name, SharedState& shared, Wake wake)
    : queue_(kQueueCap, std::move(name)), shared_(shared), wake_(std::move(wake)) {}

void ReplyOutbox::push(ClientReplyFrame reply) {
  // Bounded wait, then a counted drop: blocking here forever would close
  // a deadlock cycle (ServiceManager -> reply queue -> IO thread ->
  // RequestQueue -> Batcher -> ProposalQueue -> Protocol ->
  // DecisionQueue -> ServiceManager). The dropped client retries and is
  // answered from the reply cache.
  if (!queue_.push_for(std::move(reply), kReplyPushBudgetNs)) {
    shared_.dropped_replies.fetch_add(1, std::memory_order_relaxed);
    return;  // queue full for the whole budget, or shutting down
  }
  // Pairs with the fence in on_wake(). If this fence comes first, the
  // IO thread's drain sees the push; if the IO thread's comes first, the
  // exchange below reads its clear and this push sends the wake. The
  // queue's mutex gives the same order on its own: either the drain's pop
  // locks after this push unlocked and sees the reply, or it unlocked
  // before this push locked, so the clear happens-before the exchange and
  // the exchange reads `false`. The fence keeps the protocol from resting
  // on the queue's locking: behind a queue whose empty check is a lone
  // load, the C++ model would let the exchange read a stale `true` while
  // the drain misses the reply (store buffering). No test catches its
  // removal on x86, where the exchange is a locked instruction that
  // orders anyway.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (wake_pending_.exchange(true, std::memory_order_seq_cst)) return;  // already pending
  shared_.reply_wakeups.fetch_add(1, std::memory_order_relaxed);
  if (!wake_()) {
    // Not delivered (a full or closed inbox): re-arm so the next push
    // retries the wake.
    wake_pending_.store(false, std::memory_order_seq_cst);
  }
}

}  // namespace mcsmr::smr
