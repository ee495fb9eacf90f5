#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

#include "common/clock.hpp"
#include "net/frame.hpp"

namespace mcsmr::net {

namespace {
constexpr std::uint32_t kMaxFrameBytesForTcp = kMaxFrameBytes;
}

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::optional<TcpStream> TcpStream::connect(const std::string& host, std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return std::nullopt;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return std::nullopt;

  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return std::nullopt;
  }
  TcpStream stream(std::move(fd));
  stream.set_nodelay(true);
  return stream;
}

std::optional<TcpStream> TcpStream::connect_retry(const std::string& host, std::uint16_t port,
                                                  std::uint64_t deadline_ns) {
  for (;;) {
    if (auto stream = connect(host, port)) return stream;
    if (mono_ns() >= deadline_ns) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void TcpStream::set_nodelay(bool on) {
  const int flag = on ? 1 : 0;
  ::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &flag, sizeof flag);
}

bool TcpStream::write_all(const std::uint8_t* data, std::size_t len) {
  std::size_t written = 0;
  while (written < len) {
    const ssize_t n = ::send(fd_.get(), data + written, len - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

bool TcpStream::read_exact(std::uint8_t* data, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd_.get(), data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF
    got += static_cast<std::size_t>(n);
  }
  return true;
}

bool TcpStream::send_frame(std::span<const std::uint8_t> payload) {
  std::uint8_t header[4];
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) header[i] = static_cast<std::uint8_t>(len >> (8 * i));
  // Two writes instead of a copy; TCP_NODELAY batches are unaffected since
  // the kernel coalesces back-to-back sends in one sndbuf.
  if (!write_all(header, sizeof header)) return false;
  if (len > 0 && !write_all(payload.data(), payload.size())) return false;
  return true;
}

std::optional<Bytes> TcpStream::recv_frame() {
  std::uint8_t header[4];
  if (!read_exact(header, sizeof header)) return std::nullopt;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(header[i]) << (8 * i);
  if (len > kMaxFrameBytesForTcp) return std::nullopt;
  Bytes payload(len);
  if (len > 0 && !read_exact(payload.data(), len)) return std::nullopt;
  return payload;
}

void TcpStream::shutdown() {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

std::optional<TcpListener> TcpListener::bind(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return std::nullopt;

  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return std::nullopt;
  }
  if (::listen(fd.get(), 1024) != 0) return std::nullopt;

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    return std::nullopt;
  }

  TcpListener listener;
  listener.fd_ = std::move(fd);
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

std::optional<TcpStream> TcpListener::accept() {
  const int fd = ::accept(fd_.get(), nullptr, nullptr);
  if (fd < 0) return std::nullopt;
  TcpStream stream{Fd(fd)};
  stream.set_nodelay(true);
  return stream;
}

void TcpListener::shutdown() {
  // Closing a listening fd does not reliably wake a thread blocked in
  // accept(); shutdown does (accept fails with EINVAL).
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

void TcpListener::close() {
  shutdown();
  fd_.reset();
}

}  // namespace mcsmr::net
