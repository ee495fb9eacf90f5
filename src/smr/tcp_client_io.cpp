#include "smr/tcp_client_io.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "common/logging.hpp"

namespace mcsmr::smr {

TcpClientIo::TcpClientIo(const Config& config, std::uint16_t port, RequestQueue& requests,
                         ReplyCache& reply_cache, SharedState& shared)
    : TcpClientIo(config, port, {RequestGate::Intake{&requests, &reply_cache}}, nullptr,
                  shared) {}

TcpClientIo::TcpClientIo(const Config& config, std::uint16_t port,
                         std::vector<RequestGate::Intake> intakes,
                         const PartitionRouter* router, SharedState& shared)
    : config_(config), gate_(config, std::move(intakes), router, shared), shared_(shared),
      io_threads_(config.client_io_threads < 1 ? 1 : config.client_io_threads),
      wake_pending_(std::make_unique<std::atomic<bool>[]>(
          static_cast<std::size_t>(io_threads_))) {
  listener_ = net::TcpListener::bind(port);
  loops_.reserve(static_cast<std::size_t>(io_threads_));
  conns_.resize(static_cast<std::size_t>(io_threads_));
  // Single pipeline: the ServiceManager thread is the only producer of a
  // loop's reply queue (SPSC). Partitioned: every pipeline's
  // ServiceManager produces, so the queue goes multi-producer — as does
  // the affinity executor, whose workers reply directly.
  const QueueBackend backend = backend_for(
      config.queue_impl,
      /*fan_in=*/config.num_partitions > 1 ||
          config.executor_impl == ExecutorImpl::kAffinity);
  for (int t = 0; t < io_threads_; ++t) {
    loops_.push_back(std::make_unique<net::EventLoop>());
    reply_queues_.push_back(std::make_unique<PipelineQueue<PendingReply>>(
        backend, config.reply_queue_cap, "ReplyQueue-" + std::to_string(t)));
    wake_pending_[static_cast<std::size_t>(t)].store(false, std::memory_order_relaxed);
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
  for (auto& queue : reply_queues_) queue->close();
  listener_->close();
  accept_thread_.join();
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

void TcpClientIo::drain_replies(int thread_index) {
  auto& queue = *reply_queues_[static_cast<std::size_t>(thread_index)];
  while (auto reply = queue.try_pop()) {
    enqueue_frame(thread_index, reply->fd, std::move(reply->frame));
  }
}

void TcpClientIo::send_reply(paxos::ClientId client, paxos::RequestSeq seq,
                             ReplyStatus status, const Bytes& payload) {
  auto ref = clients_.get(client);
  if (!ref.has_value()) return;  // client disconnected
  Bytes frame = encode_client_reply(ClientReplyFrame{client, seq, status, payload});
  const int thread_index = ref->thread;
  const int fd = ref->fd;

  auto& queue = *reply_queues_[static_cast<std::size_t>(thread_index)];
  // Bounded wait + counted drop rather than an unbounded block: see
  // SimClientIo::send_reply for the deadlock cycle this avoids.
  if (!queue.push_for(PendingReply{fd, std::move(frame)}, kReplyPushBudgetNs)) {
    shared_.dropped_replies.fetch_add(1, std::memory_order_relaxed);
    return;  // queue full for the whole budget, or shutting down
  }
  auto& pending = wake_pending_[static_cast<std::size_t>(thread_index)];
  // Fence pairing with the drain task (clear-fence-drain), same protocol
  // as SimClientIo::send_reply: either the drain sees this push, or the
  // exchange reads false and a fresh drain task is posted.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!pending.exchange(true, std::memory_order_seq_cst)) {
    shared_.reply_wakeups.fetch_add(1, std::memory_order_relaxed);
    loops_[static_cast<std::size_t>(thread_index)]->post([this, thread_index] {
      // Clear the flag BEFORE popping: replies pushed after the clear
      // get a fresh drain task, replies pushed before are caught here.
      wake_pending_[static_cast<std::size_t>(thread_index)].store(false,
                                                                 std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      drain_replies(thread_index);
    });
  }
}

}  // namespace mcsmr::smr
