// Blocking TCP primitives (RAII sockets, framed send/recv).
//
// Used by the ReplicaIO module (§V-B: blocking I/O, two threads per peer
// socket) and by the TCP client library. The non-blocking epoll side used
// by ClientIO lives in event_loop.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.hpp"

namespace mcsmr::net {

/// RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset();

 private:
  int fd_ = -1;
};

/// A connected TCP stream with blocking framed I/O.
///
/// send_frame/recv_frame are thread-compatible per direction: one thread
/// may read while another writes (exactly the ReplicaIO reader/sender
/// pairing), but two concurrent writers need external serialization (the
/// SendQueue provides it).
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(Fd fd) : fd_(std::move(fd)) {}

  static std::optional<TcpStream> connect(const std::string& host, std::uint16_t port);
  /// Retry connect until `deadline_ns` (mono clock); replicas use this at
  /// cluster start when peers come up in arbitrary order.
  static std::optional<TcpStream> connect_retry(const std::string& host, std::uint16_t port,
                                                std::uint64_t deadline_ns);

  bool valid() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }

  /// Write one length-prefixed frame. Returns false on any error (the
  /// connection is then unusable).
  bool send_frame(std::span<const std::uint8_t> payload);

  /// Read one length-prefixed frame. Returns nullopt on EOF/error.
  std::optional<Bytes> recv_frame();

  /// Shut down both directions, waking any blocked reader.
  void shutdown();

  void set_nodelay(bool on);

 private:
  bool write_all(const std::uint8_t* data, std::size_t len);
  bool read_exact(std::uint8_t* data, std::size_t len);

  Fd fd_;
};

/// Listening socket.
class TcpListener {
 public:
  /// Bind to 127.0.0.1:`port` (port 0 picks a free port; see port()).
  static std::optional<TcpListener> bind(std::uint16_t port);

  std::optional<TcpStream> accept();
  std::uint16_t port() const { return port_; }
  int fd() const { return fd_.get(); }
  /// Make a blocked (and every later) accept() fail, keeping the fd, so
  /// the thread in accept() can be joined before close().
  void shutdown();
  /// Release the fd. Call only when no thread can be in accept(): the
  /// number may be reused at once.
  void close();

 private:
  Fd fd_;
  std::uint16_t port_ = 0;
};

}  // namespace mcsmr::net
