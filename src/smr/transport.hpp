// Replica-to-replica transport seam.
//
// The ReplicaIO module (§V-B) is written against this interface: one
// receive stream and one send sink per peer. A transport that can push
// frames (set_receiver) delivers each one straight into ReplicaIo on its
// own delivery thread; otherwise a dedicated ReplicaIORcv thread per peer
// blocks in recv_from(). A transport whose send_to() never blocks is
// written to on the sending module's own thread; otherwise the frame goes
// through the SendQueue to the ReplicaIOSnd thread (see replica_io.hpp).
// Two implementations:
//   * SimPeerTransport — SimNet-backed, pushes received frames and never
//     blocks on send; benches run on this so the NIC model (packet budget,
//     latency) shapes traffic;
//   * TcpPeerTransport — real sockets, blocking reads, and writes that may
//     block on a full socket buffer; examples and integration tests.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/config.hpp"
#include "net/simnet.hpp"
#include "net/tcp.hpp"

namespace mcsmr::smr {

// SimNet channel layout (per destination node):
//   1           — client worker reply inbox
//   100 + from  — replica peer inbox, one per sending replica
//   200 + t     — replica ClientIO thread t's request/work inbox
constexpr net::Channel kClientReplyChannel = 1;
constexpr net::Channel kPeerChannelBase = 100;
constexpr net::Channel kClientIoChannelBase = 200;

class PeerTransport {
 public:
  /// Takes one frame received from a peer. Called on the transport's
  /// delivery thread, which may serve other links too: it must not block.
  using Receiver = std::function<void(ReplicaId from, const Bytes& frame)>;

  virtual ~PeerTransport() = default;

  /// Blocking: next frame from `from`; nullopt when the link is closed.
  virtual std::optional<Bytes> recv_from(ReplicaId from) = 0;

  /// Push delivery: hand every frame from every peer to `receiver`
  /// instead of queueing it for recv_from(), frames already queued first.
  /// Returns false if this transport cannot push (the caller then reads
  /// with recv_from()). shutdown() detaches the receiver: once it returns,
  /// `receiver` is not running and is never called again.
  virtual bool set_receiver(Receiver /*receiver*/) { return false; }

  /// Send one frame to `to`. Returns false if the link is down; the caller
  /// treats that as packet loss (retransmission recovers).
  virtual bool send_to(ReplicaId to, const Bytes& frame) = 0;

  /// Whether send_to() can stall its caller (e.g. on a full socket
  /// buffer). Only a transport that never blocks is written to inline.
  virtual bool send_may_block() const { return true; }

  /// Close all links, waking blocked receivers.
  virtual void shutdown() = 0;
};

/// SimNet-backed peer links.
class SimPeerTransport : public PeerTransport {
 public:
  /// `nodes[i]` is the SimNet node of replica i; `self` indexes into it.
  SimPeerTransport(net::SimNetwork& net, std::vector<net::NodeId> nodes, ReplicaId self)
      : net_(net), nodes_(std::move(nodes)), self_(self) {}

  std::optional<Bytes> recv_from(ReplicaId from) override {
    auto message = net_.recv(nodes_[self_], kPeerChannelBase + from);
    if (!message.has_value()) return std::nullopt;
    return std::move(message->payload);
  }

  /// One SimNet sink per peer channel: the delivery thread calls
  /// `receiver` where it would have queued the frame.
  bool set_receiver(Receiver receiver) override {
    for (ReplicaId from = 0; from < nodes_.size(); ++from) {
      if (from == self_) continue;
      net_.set_sink(nodes_[self_], kPeerChannelBase + from,
                    [receiver, from](net::SimMessage&& message) {
                      receiver(from, message.payload);
                    });
    }
    return true;
  }

  bool send_to(ReplicaId to, const Bytes& frame) override {
    return net_.send(nodes_[self_], nodes_[to], kPeerChannelBase + self_, frame);
  }

  /// SimNetwork::send only reserves NIC time and queues the delivery.
  bool send_may_block() const override { return false; }

  void shutdown() override {
    for (ReplicaId from = 0; from < nodes_.size(); ++from) {
      net_.set_sink(nodes_[self_], kPeerChannelBase + from, nullptr);
      net_.close_inbox(nodes_[self_], kPeerChannelBase + from);
    }
  }

 private:
  net::SimNetwork& net_;
  std::vector<net::NodeId> nodes_;
  ReplicaId self_;
};

/// TCP-backed peer links over loopback/LAN.
///
/// Wire-up: replica i listens on `base_port + i`; for every pair (i, j)
/// with i < j, replica i connects and sends a 4-byte hello with its id.
/// Links are established once at startup (connect_all); a broken link
/// surfaces as recv_from() returning nullopt and send_to() returning
/// false — end-to-end retransmission and the failure detector take over,
/// as the paper prescribes for broken connections (§V-C4). send_to() is a
/// blocking write, so it keeps the default send_may_block() == true and
/// every frame goes through the ReplicaIOSnd thread.
class TcpPeerTransport : public PeerTransport {
 public:
  /// Blocks until links to all peers are up or `deadline_ns` passes.
  /// Returns nullptr on failure.
  static std::unique_ptr<TcpPeerTransport> connect_all(const Config& config, ReplicaId self,
                                                       std::uint16_t base_port,
                                                       std::uint64_t deadline_ns);

  std::optional<Bytes> recv_from(ReplicaId from) override;
  bool send_to(ReplicaId to, const Bytes& frame) override;
  void shutdown() override;

 private:
  TcpPeerTransport() = default;
  std::map<ReplicaId, net::TcpStream> links_;
};

}  // namespace mcsmr::smr
