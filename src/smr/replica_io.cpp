#include "smr/replica_io.hpp"

#include "common/logging.hpp"

namespace mcsmr::smr {

ReplicaIo::ReplicaIo(const Config& config, ReplicaId self, PeerTransport& transport,
                     Options options)
    : config_(config), self_(self), transport_(transport), options_(std::move(options)),
      inline_sends_(options_.inline_sends && !transport.send_may_block()) {
  options_.snd_prefix = config.thread_name_prefix + options_.snd_prefix;
  if (inline_sends_) return;
  send_queues_.resize(static_cast<std::size_t>(config.n));
  for (int peer = 0; peer < config.n; ++peer) {
    if (static_cast<ReplicaId>(peer) == self_) continue;
    send_queues_[static_cast<std::size_t>(peer)] =
        std::make_unique<SendQueue>(kSendQueueCap, "SendQueue-" + std::to_string(peer));
  }
}

void ReplicaIo::register_partition(DispatcherQueue& dispatcher, SharedState& shared) {
  feeds_.push_back(Feed{&dispatcher, &shared});
}

void ReplicaIo::start(bool spawn_receivers) {
  if (started_) return;
  started_ = true;
  // A transport that pushes frames calls on_frame on its delivery thread,
  // which serves every node and so must never wait on our dispatcher.
  const bool receive_threads =
      spawn_receivers && !transport_.set_receiver([this](ReplicaId peer, const Bytes& frame) {
        on_frame(peer, frame, /*may_block=*/false);
      });
  for (int peer = 0; peer < config_.n; ++peer) {
    const auto id = static_cast<ReplicaId>(peer);
    if (id == self_) continue;
    if (receive_threads) {
      threads_.emplace_back(config_.thread_name_prefix + "ReplicaIORcv-" + std::to_string(peer),
                            [this, id] { rcv_loop(id); });
    }
    if (!inline_sends_) {
      threads_.emplace_back(options_.snd_prefix + std::to_string(peer),
                            [this, id] { snd_loop(id); });
    }
  }
}

void ReplicaIo::stop() {
  if (!started_) return;
  transport_.shutdown();  // detaches a pushing transport; wakes receivers
  for (auto& queue : send_queues_) {
    if (queue) queue->close();  // wakes senders
  }
  threads_.clear();  // joins
  started_ = false;
}

bool ReplicaIo::on_frame(ReplicaId peer, const Bytes& frame, bool may_block) {
  // Any traffic from the peer proves liveness; the FD thread reads this
  // without being notified (timestamps only increase, §V-C3).
  liveness().last_recv_ns[peer].store(mono_ns(), std::memory_order_relaxed);
  const std::uint32_t partitions = partition_count();
  try {
    const std::uint8_t* data = frame.data();
    std::size_t size = frame.size();
    std::uint32_t partition = 0;
    if (partitions > 1) {
      // Partition-tagged frame: one leading byte selects the pipeline.
      if (size == 0) throw DecodeError("empty partitioned frame");
      partition = data[0];
      if (partition >= partitions) throw DecodeError("partition tag out of range");
      ++data;
      --size;
    }
    paxos::WireMessage wire = paxos::decode_message(std::span(data, size));
    // Trust the link, not the frame header, for the sender identity.
    PeerMessageEvent event{peer, std::move(wire.message)};
    DispatcherQueue& dispatcher = *feeds_[partition].dispatcher;
    if (may_block ? dispatcher.push(std::move(event)) : dispatcher.try_push(std::move(event))) {
      return true;
    }
    liveness().dropped_peer_frames.fetch_add(1, std::memory_order_relaxed);
    return false;
  } catch (const DecodeError& error) {
    LOG_WARN << "dropping malformed frame from replica " << peer << ": " << error.what();
    return true;
  }
}

void ReplicaIo::rcv_loop(ReplicaId peer) {
  while (auto frame = transport_.recv_from(peer)) {
    if (!on_frame(peer, *frame, /*may_block=*/true)) return;  // dispatcher closed
  }
}

void ReplicaIo::snd_loop(ReplicaId peer) {
  SendQueue& queue = *send_queues_[peer];
  while (auto frame = queue.pop()) {
    if (!transport_.send_to(peer, *frame)) {
      // Link down: drop; retransmission recovers once it heals.
      liveness().dropped_peer_frames.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

bool ReplicaIo::send_frame(ReplicaId to, const Bytes& frame) {
  if (to == self_) return false;
  if (inline_sends_) {
    // Sequential calls from one thread keep their order on the transport,
    // so each producer's frames stay FIFO without a queue.
    const bool sent = transport_.send_to(to, frame);
    (sent ? liveness().inline_peer_frames : liveness().dropped_peer_frames)
        .fetch_add(1, std::memory_order_relaxed);
    return sent;
  }
  if (!send_queues_[to]->try_push(frame)) {
    liveness().dropped_peer_frames.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

Bytes ReplicaIo::encode_frame(std::uint32_t partition, const paxos::Message& message) const {
  Bytes inner = paxos::encode_message(self_, message);
  if (partition_count() <= 1) return inner;  // untagged: pre-partitioning format
  Bytes framed;
  framed.reserve(1 + inner.size());
  framed.push_back(static_cast<std::uint8_t>(partition));
  framed.insert(framed.end(), inner.begin(), inner.end());
  return framed;
}

bool ReplicaIo::send(ReplicaId to, const paxos::Message& message, std::uint32_t partition) {
  return send_frame(to, encode_frame(partition, message));
}

void ReplicaIo::broadcast(const paxos::Message& message, std::uint32_t partition) {
  const Bytes frame = encode_frame(partition, message);
  for (int peer = 0; peer < config_.n; ++peer) {
    if (static_cast<ReplicaId>(peer) != self_) {
      send_frame(static_cast<ReplicaId>(peer), frame);
    }
  }
}

}  // namespace mcsmr::smr
