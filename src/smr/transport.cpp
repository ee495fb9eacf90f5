#include "smr/transport.hpp"

#include <thread>

#include "common/clock.hpp"
#include "common/logging.hpp"

namespace mcsmr::smr {

std::unique_ptr<TcpPeerTransport> TcpPeerTransport::connect_all(const Config& config,
                                                                ReplicaId self,
                                                                std::uint16_t base_port,
                                                                std::uint64_t deadline_ns) {
  auto transport = std::unique_ptr<TcpPeerTransport>(new TcpPeerTransport());
  if (config.n == 1) return transport;

  auto listener = net::TcpListener::bind(static_cast<std::uint16_t>(base_port + self));
  if (!listener.has_value()) {
    LOG_ERROR << "replica " << self << ": cannot bind port " << (base_port + self);
    return nullptr;
  }

  // Accept links from lower-id peers on a helper thread while we dial
  // higher-id peers; both sides retry until the deadline.
  const int expect_inbound = static_cast<int>(self);
  std::map<ReplicaId, net::TcpStream> inbound;
  std::thread acceptor([&] {
    for (int got = 0; got < expect_inbound;) {
      auto stream = listener->accept();
      if (!stream.has_value()) return;  // listener closed (timeout path)
      auto hello = stream->recv_frame();
      if (!hello.has_value() || hello->size() != 4) continue;
      ByteReader reader(*hello);
      const ReplicaId peer = reader.u32();
      if (peer >= static_cast<ReplicaId>(config.n)) continue;
      inbound.emplace(peer, std::move(*stream));
      ++got;
    }
  });

  bool ok = true;
  for (ReplicaId peer = self + 1; peer < static_cast<ReplicaId>(config.n); ++peer) {
    auto stream = net::TcpStream::connect_retry(
        "127.0.0.1", static_cast<std::uint16_t>(base_port + peer), deadline_ns);
    if (!stream.has_value()) {
      ok = false;
      break;
    }
    ByteWriter hello(4);
    hello.u32(self);
    if (!stream->send_frame(hello.view())) {
      ok = false;
      break;
    }
    transport->links_.emplace(peer, std::move(*stream));
  }

  if (!ok) {
    listener->shutdown();
    acceptor.join();
    listener->close();
    return nullptr;
  }
  acceptor.join();
  listener->close();
  for (auto& [peer, stream] : inbound) transport->links_.emplace(peer, std::move(stream));

  if (transport->links_.size() != static_cast<std::size_t>(config.n - 1)) {
    return nullptr;
  }
  return transport;
}

std::optional<Bytes> TcpPeerTransport::recv_from(ReplicaId from) {
  auto it = links_.find(from);
  if (it == links_.end()) return std::nullopt;
  return it->second.recv_frame();
}

bool TcpPeerTransport::send_to(ReplicaId to, const Bytes& frame) {
  auto it = links_.find(to);
  if (it == links_.end()) return false;
  return it->second.send_frame(frame);
}

void TcpPeerTransport::shutdown() {
  for (auto& [peer, stream] : links_) stream.shutdown();
}

}  // namespace mcsmr::smr
