// epoll-based event loop, one instance per ClientIO thread (§V-A).
//
// The paper's ClientIO module is event-driven over non-blocking sockets
// (Java NIO there, epoll here) with a static pool of loops and round-robin
// connection assignment. Cross-thread work injection — the ServiceManager
// handing a reply to the ClientIO thread that owns the client's connection —
// is done with post(): an eventfd-woken task queue, which is exactly the
// "message queue of the ClientIO thread" in Fig 3.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/tcp.hpp"

namespace mcsmr::net {

class EventLoop {
 public:
  /// Callback receives the epoll event mask (EPOLLIN/EPOLLOUT/...).
  using FdCallback = std::function<void(std::uint32_t events)>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Register `fd` for `events`. The callback runs on the loop thread.
  bool add(int fd, std::uint32_t events, FdCallback callback);
  /// Change the interest set of a registered fd.
  bool modify(int fd, std::uint32_t events);
  /// Deregister; safe to call from within a callback for the same fd.
  void remove(int fd);

  /// Run until stop(). Must be called from exactly one thread.
  void run();

  /// Thread-safe: ask the loop to exit.
  void stop();

  /// Thread-safe: run `task` on the loop thread soon. This is the reply
  /// hand-off path from the ServiceManager.
  void post(std::function<void()> task);

  bool running() const { return running_; }

 private:
  void wake();
  void drain_tasks();

  Fd epoll_fd_;
  Fd wake_fd_;
  std::unordered_map<int, FdCallback> callbacks_;
  std::mutex task_mu_;
  std::vector<std::function<void()>> tasks_;
  // Written by stop() and run() on other threads than the ones reading.
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
};

}  // namespace mcsmr::net
