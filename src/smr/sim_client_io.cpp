#include "smr/sim_client_io.hpp"

#include "common/logging.hpp"

namespace mcsmr::smr {

SimClientIo::SimClientIo(const Config& config, net::SimNetwork& net, net::NodeId self_node,
                         std::vector<RequestGate::Intake> intakes,
                         const PartitionRouter* router, SharedState& shared)
    : config_(config), net_(net), self_node_(self_node),
      gate_(config, std::move(intakes), router, shared),
      io_threads_(config.client_io_threads < 1 ? 1 : config.client_io_threads) {
  for (int t = 0; t < io_threads_; ++t) {
    const net::Channel channel = kClientIoChannelBase + static_cast<net::Channel>(t);
    // The wake is an empty message in the IO thread's inbox. inject()
    // fails on a full inbox; the opportunistic drain in io_loop covers
    // the gap until the next push retries.
    outboxes_.push_back(std::make_unique<ReplyOutbox>(
        "ReplyQueue-" + std::to_string(t), shared, [this, channel] {
          net::SimMessage wake;
          wake.from = self_node_;
          wake.channel = channel;
          return net_.inject(self_node_, channel, std::move(wake));
        }));
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
  for (auto& outbox : outboxes_) outbox->close();
  for (int t = 0; t < io_threads_; ++t) {
    net_.close_inbox(self_node_, kClientIoChannelBase + static_cast<net::Channel>(t));
  }
  threads_.clear();  // joins
  started_ = false;
}

void SimClientIo::deliver(const ClientReplyFrame& reply) {
  auto node = reply_nodes_.get(reply.client_id);
  if (node.has_value()) {
    net_.send(self_node_, *node, kClientReplyChannel, encode_client_reply(reply));
  }
}

void SimClientIo::io_loop(int thread_index) {
  const net::Channel channel = kClientIoChannelBase + static_cast<net::Channel>(thread_index);
  ReplyOutbox& outbox = *outboxes_[static_cast<std::size_t>(thread_index)];
  const auto deliver_reply = [this](const ClientReplyFrame& reply) { deliver(reply); };
  while (auto message = net_.recv(self_node_, channel)) {
    if (message->payload.empty()) {
      outbox.on_wake(deliver_reply);  // reply-queue wake
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
    outbox.drain(deliver_reply);
  }
}

void SimClientIo::send_reply(paxos::ClientId client, paxos::RequestSeq seq,
                             ReplyStatus status, const Bytes& payload) {
  // No route: the client never sent to this replica (a follower executing
  // the leader's traffic). Skip the hand-off instead of waking an IO
  // thread just to drop the reply there, as TcpClientIo does.
  if (!reply_nodes_.get(client).has_value()) return;
  outboxes_[static_cast<std::size_t>(thread_for_client(client))]->push(
      ClientReplyFrame{client, seq, status, payload});
}

}  // namespace mcsmr::smr
