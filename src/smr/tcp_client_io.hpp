// ClientIO over TCP (§V-A): non-blocking sockets, a static pool of
// epoll event loops, and round-robin assignment of accepted connections.
//
// Each IO thread owns an EventLoop; a connection lives on exactly one
// loop for its lifetime. Replies are handed to the owning loop through
// its reply queue (Fig 3's per-ClientIO-thread reply queue) and written by
// that thread, with partial writes buffered and flushed on EPOLLOUT. One
// drain task is posted per burst (edge-triggered via an atomic flag), so
// a batch of B replies costs B queue ops + 1 post. Config::queue_impl
// picks the queue's backend (lock-free ring or the paper's mutex queue;
// see backend_for()).
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
#include "smr/request_gate.hpp"

namespace mcsmr::smr {

class TcpClientIo : public ClientIo {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()). Single-pipeline
  /// convenience (legacy signature).
  TcpClientIo(const Config& config, std::uint16_t port, RequestQueue& requests,
              ReplyCache& reply_cache, SharedState& shared);
  /// One intake per partition; `router` may be null for a single pipeline.
  /// With several pipelines the reply rings get one producer per
  /// ServiceManager, so the ring backend switches from SPSC to MPMC.
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

  /// A reply staged on a loop's reply queue, bound for connection `fd`.
  struct PendingReply {
    int fd = -1;
    Bytes frame;
  };

  void accept_loop();
  void adopt(int thread_index, net::TcpStream stream);
  void on_readable(int thread_index, int fd);
  void flush_writes(int thread_index, int fd);
  void close_connection(int thread_index, int fd);
  void enqueue_frame(int thread_index, int fd, Bytes frame);
  void drain_replies(int thread_index);

  // Owned copy, not a reference: a stored Config& tied this object's
  // lifetime to the constructor argument (the PR-6 dangling-Config bug
  // class); lint_invariants.py forbids storing the parameter by ref.
  const Config config_;
  RequestGate gate_;
  SharedState& shared_;
  const int io_threads_;

  std::optional<net::TcpListener> listener_;
  std::vector<std::unique_ptr<net::EventLoop>> loops_;
  // Per-loop connection tables; each is touched only by its loop thread.
  std::vector<std::unordered_map<int, Connection>> conns_;

  ClientRegistry<ConnRef> clients_;

  // Reply path: one queue + wake flag per loop. The flag is cleared by the
  // drain task BEFORE it pops, so the producer's push-then-exchange order
  // guarantees every reply is seen by some drain (same pattern as
  // SimClientIo).
  std::vector<std::unique_ptr<PipelineQueue<PendingReply>>> reply_queues_;
  std::unique_ptr<std::atomic<bool>[]> wake_pending_;

  std::vector<metrics::NamedThread> threads_;
  metrics::NamedThread accept_thread_;
  bool started_ = false;
};

}  // namespace mcsmr::smr
