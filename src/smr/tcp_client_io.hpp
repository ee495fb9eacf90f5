// ClientIO over TCP (§V-A): non-blocking sockets, a static pool of
// epoll event loops, and round-robin assignment of accepted connections.
//
// Each IO thread owns an EventLoop; a connection lives on exactly one
// loop for its lifetime. Replies are handed to the owning loop through
// its ReplyOutbox (Fig 3's per-ClientIO-thread reply queue), whose wake is
// one drain task posted to the loop per burst; that thread serializes
// and writes them, with partial writes buffered and flushed on EPOLLOUT.
//
// Backpressure: the admission gate pushes into the bounded RequestQueue
// with a blocking push, stalling the IO thread — which therefore stops
// reading every socket it owns; kernel receive buffers then fill and TCP
// pushes back to the clients (§V-E).
#pragma once

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "metrics/thread_stats.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/tcp.hpp"
#include "smr/client_io.hpp"
#include "smr/reply_outbox.hpp"
#include "smr/request_gate.hpp"

namespace mcsmr::smr {

class TcpClientIo : public ClientIo {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()). One intake per
  /// partition; `router` may be null for a single pipeline.
  TcpClientIo(const Config& config, std::uint16_t port,
              std::vector<RequestGate::Intake> intakes, const PartitionRouter* router,
              SharedState& shared);
  ~TcpClientIo() override;

  bool valid() const { return listener_.has_value(); }
  std::uint16_t port() const { return listener_ ? listener_->port() : 0; }

  void start() override;
  void stop() override;

  void send_reply(paxos::ClientId client, paxos::RequestSeq seq, ReplyStatus status,
                  const Bytes& payload) override;

 private:
  struct Connection {
    net::TcpStream stream;
    net::FrameParser parser;
    std::deque<Bytes> out;      // frames waiting to be written
    std::size_t out_offset = 0; // progress inside out.front()
    bool want_write = false;
  };
  struct ConnRef {
    int thread = -1;
    int fd = -1;
  };

  void accept_loop();
  void adopt(int thread_index, net::TcpStream stream);
  void on_readable(int thread_index, int fd);
  void flush_writes(int thread_index, int fd);
  void close_connection(int thread_index, int fd);
  void enqueue_frame(int thread_index, int fd, Bytes frame);
  /// Serialize and write one reply (runs on loop thread `thread_index`).
  void deliver(int thread_index, const ClientReplyFrame& reply);

  // Owned copy, not a reference: a stored Config& tied this object's
  // lifetime to the constructor argument (the PR-6 dangling-Config bug
  // class); lint_invariants.py forbids storing the parameter by ref.
  const Config config_;
  RequestGate gate_;
  const int io_threads_;

  std::optional<net::TcpListener> listener_;
  std::vector<std::unique_ptr<net::EventLoop>> loops_;
  // Per-loop connection tables; each is touched only by its loop thread.
  std::vector<std::unordered_map<int, Connection>> conns_;

  ClientRegistry<ConnRef> clients_;

  std::vector<std::unique_ptr<ReplyOutbox>> outboxes_;  // one per loop

  std::vector<metrics::NamedThread> threads_;
  metrics::NamedThread accept_thread_;
  bool started_ = false;
};

}  // namespace mcsmr::smr
