#include "smr/sim_client_io.hpp"

#include "common/logging.hpp"

namespace mcsmr::smr {

SimClientIo::SimClientIo(const Config& config, net::SimNetwork& net, net::NodeId self_node,
                         RequestQueue& requests, ReplyCache& reply_cache, SharedState& shared)
    : SimClientIo(config, net, self_node, {RequestGate::Intake{&requests, &reply_cache}},
                  nullptr, shared) {}

SimClientIo::SimClientIo(const Config& config, net::SimNetwork& net, net::NodeId self_node,
                         std::vector<RequestGate::Intake> intakes,
                         const PartitionRouter* router, SharedState& shared)
    : config_(config), net_(net), self_node_(self_node),
      gate_(config, std::move(intakes), router, shared), shared_(shared),
      io_threads_(config.client_io_threads < 1 ? 1 : config.client_io_threads),
      wake_pending_(std::make_unique<std::atomic<bool>[]>(
          static_cast<std::size_t>(io_threads_))) {
  // Single pipeline: the ServiceManager thread is the only producer of IO
  // thread t's queue (SPSC). Partitioned: every pipeline's ServiceManager
  // produces, so the queue goes multi-producer — as does the affinity
  // executor, whose workers reply directly.
  const QueueBackend backend = backend_for(
      config.queue_impl,
      /*fan_in=*/config.num_partitions > 1 ||
          config.executor_impl == ExecutorImpl::kAffinity);
  for (int t = 0; t < io_threads_; ++t) {
    reply_queues_.push_back(std::make_unique<PipelineQueue<ClientReplyFrame>>(
        backend, config.reply_queue_cap, "ReplyQueue-" + std::to_string(t)));
    wake_pending_[static_cast<std::size_t>(t)].store(false, std::memory_order_relaxed);
  }
}

SimClientIo::~SimClientIo() { stop(); }

void SimClientIo::start() {
  if (started_) return;
  started_ = true;
  for (int t = 0; t < io_threads_; ++t) {
    threads_.emplace_back(config_.thread_name_prefix + "ClientIO-" + std::to_string(t),
                          [this, t] { io_loop(t); });
  }
}

void SimClientIo::stop() {
  if (!started_) return;
  // Close the reply queues first so a ServiceManager blocked on a full
  // queue unwedges (its push fails) before the IO threads go away.
  for (auto& queue : reply_queues_) queue->close();
  for (int t = 0; t < io_threads_; ++t) {
    net_.close_inbox(self_node_, kClientIoChannelBase + static_cast<net::Channel>(t));
  }
  threads_.clear();  // joins
  started_ = false;
}

void SimClientIo::drain_replies(int thread_index) {
  auto& queue = *reply_queues_[static_cast<std::size_t>(thread_index)];
  while (auto reply = queue.try_pop()) {
    auto node = reply_nodes_.get(reply->client_id);
    if (node.has_value()) {
      net_.send(self_node_, *node, kClientReplyChannel, encode_client_reply(*reply));
    }
  }
}

void SimClientIo::io_loop(int thread_index) {
  const net::Channel channel = kClientIoChannelBase + static_cast<net::Channel>(thread_index);
  while (auto message = net_.recv(self_node_, channel)) {
    if (message->payload.empty()) {
      // Reply-queue wake. Clear the flag BEFORE draining: any reply pushed
      // after the clear triggers a fresh wake, any reply pushed before it
      // is caught by this drain.
      wake_pending_[static_cast<std::size_t>(thread_index)].store(false,
                                                                 std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      drain_replies(thread_index);
      continue;
    }

    DecodedClientFrame frame;
    try {
      frame = decode_client_frame(message->payload);
    } catch (const DecodeError& error) {
      LOG_WARN << "dropping malformed client frame: " << error.what();
      continue;
    }

    if (frame.kind != ClientFrameKind::kRequest) continue;
    // Remember where to answer, then run the admission gate.
    reply_nodes_.put(frame.request.client_id, frame.request.reply_node);
    auto outcome = gate_.admit(frame.request);
    if (outcome.action == RequestGate::Action::kReplyNow) {
      net_.send(self_node_, frame.request.reply_node, kClientReplyChannel,
                encode_client_reply(outcome.reply));
    }
    // Opportunistic drain: request traffic keeps the reply queue flowing
    // even if a wake message was lost to a momentarily full inbox.
    drain_replies(thread_index);
  }
}

void SimClientIo::send_reply(paxos::ClientId client, paxos::RequestSeq seq,
                             ReplyStatus status, const Bytes& payload) {
  // No route: the client never sent to this replica (a follower executing
  // the leader's traffic). Skip the hand-off instead of waking an IO
  // thread just to drop the reply there, as TcpClientIo does.
  if (!reply_nodes_.get(client).has_value()) return;
  const int t = thread_for_client(client);
  // Bounded wait, then a counted drop: blocking here forever would close
  // a deadlock cycle (ServiceManager -> reply queue -> IO thread ->
  // RequestQueue -> Batcher -> ProposalQueue -> Protocol ->
  // DecisionQueue -> ServiceManager). The dropped client retries and is
  // answered from the reply cache.
  if (!reply_queues_[static_cast<std::size_t>(t)]->push_for(
          ClientReplyFrame{client, seq, status, payload}, kReplyPushBudgetNs)) {
    shared_.dropped_replies.fetch_add(1, std::memory_order_relaxed);
    return;  // queue full for the whole budget, or shutting down
  }
  auto& pending = wake_pending_[static_cast<std::size_t>(t)];
  // Fence pairing with the consumer (clear-fence-drain): if our exchange
  // is ordered before the consumer's clear, the fences make the push
  // visible to that drain; if after, the exchange reads false and we
  // send a fresh wake. Either way no reply is stranded.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!pending.exchange(true, std::memory_order_seq_cst)) {
    shared_.reply_wakeups.fetch_add(1, std::memory_order_relaxed);
    net::SimMessage wake;
    wake.from = self_node_;
    wake.channel = channel_for_client(client);
    if (!net_.inject(self_node_, wake.channel, std::move(wake))) {
      // Inbox full or closed: re-arm so the next reply retries the wake
      // (the opportunistic drain in io_loop covers the gap meanwhile).
      pending.store(false, std::memory_order_seq_cst);
    }
  }
}

}  // namespace mcsmr::smr
