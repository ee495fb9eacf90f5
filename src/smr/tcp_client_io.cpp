#include "smr/tcp_client_io.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "common/logging.hpp"

namespace mcsmr::smr {

TcpClientIo::TcpClientIo(const Config& config, std::uint16_t port,
                         std::vector<RequestGate::Intake> intakes,
                         const PartitionRouter* router, SharedState& shared)
    : config_(config), gate_(config, std::move(intakes), router, shared),
      io_threads_(config.client_io_threads < 1 ? 1 : config.client_io_threads) {
  listener_ = net::TcpListener::bind(port);
  loops_.reserve(static_cast<std::size_t>(io_threads_));
  conns_.resize(static_cast<std::size_t>(io_threads_));
  for (int t = 0; t < io_threads_; ++t) {
    loops_.push_back(std::make_unique<net::EventLoop>());
    // The wake is a drain task posted to the loop (post() cannot fail).
    outboxes_.push_back(std::make_unique<ReplyOutbox>(
        config.queue_impl, "ReplyQueue-" + std::to_string(t), shared, [this, t] {
          loops_[static_cast<std::size_t>(t)]->post([this, t] {
            outboxes_[static_cast<std::size_t>(t)]->on_wake(
                [this, t](const ClientReplyFrame& reply) { deliver(t, reply); });
          });
          return true;
        }));
  }
}

TcpClientIo::~TcpClientIo() { stop(); }

void TcpClientIo::start() {
  if (started_ || !listener_.has_value()) return;
  started_ = true;
  for (int t = 0; t < io_threads_; ++t) {
    threads_.emplace_back(config_.thread_name_prefix + "ClientIO-" + std::to_string(t),
                          [this, t] { loops_[static_cast<std::size_t>(t)]->run(); });
  }
  accept_thread_ = metrics::NamedThread(config_.thread_name_prefix + "ClientIOAccept",
                                        [this] { accept_loop(); });
}

void TcpClientIo::stop() {
  if (!started_) return;
  // Close the reply queues first so a ServiceManager blocked on a full
  // queue unwedges (its push fails) before the loops go away.
  for (auto& outbox : outboxes_) outbox->close();
  listener_->shutdown();  // wakes accept_loop, which still reads the fd
  accept_thread_.join();
  listener_->close();
  for (auto& loop : loops_) loop->stop();
  threads_.clear();  // joins IO threads
  // Close remaining connections (loop threads are gone; safe to touch).
  for (auto& table : conns_) table.clear();
  started_ = false;
}

void TcpClientIo::accept_loop() {
  int next_thread = 0;
  while (auto stream = listener_->accept()) {
    // Round-robin assignment to the IO-thread pool (§V-A).
    const int target = next_thread;
    next_thread = (next_thread + 1) % io_threads_;
    // Hand the socket to its owning loop thread.
    auto shared_stream = std::make_shared<net::TcpStream>(std::move(*stream));
    loops_[static_cast<std::size_t>(target)]->post([this, target, shared_stream]() mutable {
      adopt(target, std::move(*shared_stream));
    });
  }
}

void TcpClientIo::adopt(int thread_index, net::TcpStream stream) {
  const int fd = stream.fd();
  // Non-blocking: the loop must never hang in read()/send().
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  auto& table = conns_[static_cast<std::size_t>(thread_index)];
  auto [it, inserted] = table.emplace(fd, Connection{std::move(stream), {}, {}, 0, false});
  if (!inserted) return;

  net::EventLoop& loop = *loops_[static_cast<std::size_t>(thread_index)];
  loop.add(fd, EPOLLIN, [this, thread_index, fd](std::uint32_t events) {
    if (events & (EPOLLHUP | EPOLLERR)) {
      close_connection(thread_index, fd);
      return;
    }
    if (events & EPOLLOUT) flush_writes(thread_index, fd);
    if (events & EPOLLIN) on_readable(thread_index, fd);
  });
}

void TcpClientIo::on_readable(int thread_index, int fd) {
  auto& table = conns_[static_cast<std::size_t>(thread_index)];
  auto it = table.find(fd);
  if (it == table.end()) return;
  Connection& conn = it->second;

  std::uint8_t buf[16 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n > 0) {
      const bool ok = conn.parser.feed(
          {buf, static_cast<std::size_t>(n)}, [&](Bytes frame) {
            DecodedClientFrame decoded;
            try {
              decoded = decode_client_frame(frame);
            } catch (const DecodeError& error) {
              LOG_WARN << "malformed client frame: " << error.what();
              return;
            }
            if (decoded.kind != ClientFrameKind::kRequest) return;
            clients_.put(decoded.request.client_id, ConnRef{thread_index, fd});
            auto outcome = gate_.admit(decoded.request);  // may block: backpressure
            if (outcome.action == RequestGate::Action::kReplyNow) {
              enqueue_frame(thread_index, fd, encode_client_reply(outcome.reply));
            }
          });
      if (!ok) {
        close_connection(thread_index, fd);
        return;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    close_connection(thread_index, fd);  // EOF or hard error
    return;
  }
}

void TcpClientIo::enqueue_frame(int thread_index, int fd, Bytes frame) {
  auto& table = conns_[static_cast<std::size_t>(thread_index)];
  auto it = table.find(fd);
  if (it == table.end()) return;
  // Prefix with the length header here so the write path is a flat queue.
  Bytes wire = net::frame_message(frame);
  it->second.out.push_back(std::move(wire));
  flush_writes(thread_index, fd);
}

void TcpClientIo::flush_writes(int thread_index, int fd) {
  auto& table = conns_[static_cast<std::size_t>(thread_index)];
  auto it = table.find(fd);
  if (it == table.end()) return;
  Connection& conn = it->second;

  while (!conn.out.empty()) {
    const Bytes& frame = conn.out.front();
    const ssize_t n = ::send(fd, frame.data() + conn.out_offset,
                             frame.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_connection(thread_index, fd);
      return;
    }
    conn.out_offset += static_cast<std::size_t>(n);
    if (conn.out_offset == frame.size()) {
      conn.out.pop_front();
      conn.out_offset = 0;
    }
  }

  const bool need_write = !conn.out.empty();
  if (need_write != conn.want_write) {
    conn.want_write = need_write;
    loops_[static_cast<std::size_t>(thread_index)]->modify(
        fd, need_write ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
  }
}

void TcpClientIo::close_connection(int thread_index, int fd) {
  auto& table = conns_[static_cast<std::size_t>(thread_index)];
  auto it = table.find(fd);
  if (it == table.end()) return;
  loops_[static_cast<std::size_t>(thread_index)]->remove(fd);
  table.erase(it);  // TcpStream destructor closes the fd
}

void TcpClientIo::deliver(int thread_index, const ClientReplyFrame& reply) {
  // The connection is looked up again here, on its loop: the client may
  // have disconnected, or reconnected to another loop, since send_reply.
  auto ref = clients_.get(reply.client_id);
  if (!ref.has_value() || ref->thread != thread_index) return;
  enqueue_frame(thread_index, ref->fd, encode_client_reply(reply));
}

void TcpClientIo::send_reply(paxos::ClientId client, paxos::RequestSeq seq,
                             ReplyStatus status, const Bytes& payload) {
  auto ref = clients_.get(client);
  if (!ref.has_value()) return;  // client disconnected
  outboxes_[static_cast<std::size_t>(ref->thread)]->push(
      ClientReplyFrame{client, seq, status, payload});
}

}  // namespace mcsmr::smr
