// The benchmark's load generator: one thread on one SimNet client node,
// driving the cluster through the public client protocol only.
//
// Logical clients each have at most one request outstanding. A request
// with no reply after kRetryNs is resent with the same seq to the next
// replica; a redirect is followed at once. Two arrival modes:
//   closed — N clients, each sending its next request when the previous
//            one is answered (the paper's population);
//   open   — Poisson arrivals at a fixed rate, each taken by an idle client
//            from a pool; latency runs from the *scheduled* send time, so a
//            stall of the generator itself counts against the system.
//
// The caller drives time with run_until() and brackets measurement
// windows with open_window()/close_window(). A request belongs to the
// window that was open when it was issued; it fails if it has no OK reply
// within kFailAfterNs of its due time.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/rand.hpp"
#include "net/simnet.hpp"
#include "workload.hpp"

namespace e2e {

constexpr std::uint64_t kRetryNs = 200'000'000;
constexpr std::uint64_t kFailAfterNs = 2'000'000'000;
constexpr int kClosedClients = 1800;
constexpr int kOpenPool = 50'000;

/// What one measurement window saw.
struct WindowStats {
  std::uint64_t start_ns = 0, end_ns = 0;
  std::uint64_t completed = 0;  ///< OK replies received while open
  std::uint64_t attempted = 0;  ///< requests issued (or due, unissued) while open
  std::uint64_t failed = 0;     ///< of those: no OK in time, or no idle client
  std::uint64_t resends = 0;    ///< timed-out requests resent while open
  std::uint64_t redirects = 0;  ///< redirect replies while open
  std::vector<std::uint64_t> latency_ns;  ///< due -> OK of attempted requests
  std::vector<std::uint64_t> lag_ns;      ///< due -> first send (open loop)

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Per-key record of PUTs, enough to know the value a key must hold at
/// the end: that of the PUT acknowledged last, when no other PUT to the
/// key overlapped it and none is unresolved.
struct KeyTally {
  std::uint32_t puts = 0;
  std::uint32_t unresolved = 0;
  std::uint64_t last_ack_ns = 0, last_invoke_ns = 0, last_stamp = 0;
  std::uint64_t prev_ack_ns = 0;  ///< second-latest ack among the key's PUTs

  bool determined() const { return puts > 0 && unresolved == 0 && prev_ack_ns < last_invoke_ns; }
};

class Generator {
 public:
  Generator(mcsmr::net::SimNetwork& net, std::vector<mcsmr::net::NodeId> replicas,
            const OpStream& ops, int io_threads);

  /// Start `clients` closed-loop clients on `stream`; stop_arrivals() ends it.
  void start_closed(Stream stream, int clients);
  /// Start Poisson arrivals at `rate_per_s` on `stream`, the first due now.
  void start_open(Stream stream, double rate_per_s, std::uint64_t rng_seed);
  /// No new requests; outstanding ones keep retrying until answered.
  void stop_arrivals();
  /// Send one request and wait up to `max_ns` for its OK reply.
  bool call_once(std::uint64_t max_ns);

  /// Process replies, arrivals and retries until `deadline_ns`.
  void run_until(std::uint64_t deadline_ns);
  /// run_until() until nothing is outstanding or `max_ns` has passed;
  /// true if everything was answered.
  bool drain(std::uint64_t max_ns);

  int open_window();
  void close_window();
  /// Count every request still unanswered as failed (call after a drain).
  void fail_outstanding();
  const WindowStats& window(int index) const { return windows_[static_cast<std::size_t>(index)]; }

  /// The failover gap ends at the first OK reply to a request due
  /// after `crash_ns`.
  void mark_crash(std::uint64_t crash_ns) { crash_ns_ = crash_ns; }
  std::uint64_t first_ok_after_crash_ns() const { return first_ok_after_crash_ns_; }

  std::uint64_t bad_replies() const { return bad_replies_; }
  const std::vector<KeyTally>& keys() const { return keys_; }

 private:
  struct Client {
    std::uint64_t id = 0;
    std::uint64_t seq = 0;
    std::uint64_t stamp = 0;
    std::uint64_t due_ns = 0;
    std::uint64_t invoke_ns = 0;  ///< first send
    std::uint32_t attempt = 0;    ///< bumps on every send; stale timers skip
    std::uint32_t target = 0;     ///< replica index of the last send
    std::int32_t window = -1;     ///< window it was issued in, or -1
    bool busy = false;
  };
  struct Timer {
    std::uint64_t at_ns;
    std::uint32_t client;
    std::uint32_t attempt;
  };

  void issue(std::uint32_t index, std::uint64_t due_ns, std::uint64_t now);
  void send(std::uint32_t index, std::uint64_t now);
  void on_frame(const mcsmr::net::SimMessage& message, std::uint64_t now);
  void complete(std::uint32_t index, std::uint32_t from_replica, const Bytes& payload,
                std::uint64_t now);
  void release(std::uint32_t index, std::uint64_t now);
  WindowStats* current_window() { return window_open_ ? &windows_.back() : nullptr; }

  mcsmr::net::SimNetwork& net_;
  std::vector<mcsmr::net::NodeId> replicas_;
  const OpStream& ops_;
  const int io_threads_;
  mcsmr::net::NodeId self_;

  std::vector<Client> clients_;     ///< [0, kClosedClients) closed, the rest the open pool
  std::vector<std::uint32_t> idle_;  ///< idle open-pool clients
  std::deque<Timer> timers_;         ///< FIFO: each expires kRetryNs after its send
  std::uint32_t leader_guess_ = 0;

  enum class Mode { kIdle, kClosed, kOpen } mode_ = Mode::kIdle;
  Stream stream_ = Stream::kSetup;
  std::uint64_t next_index_ = 0;
  std::uint64_t next_due_ns_ = 0;
  double mean_gap_ns_ = 0;
  mcsmr::Rng arrivals_{1};

  std::vector<WindowStats> windows_;
  bool window_open_ = false;
  std::uint64_t outstanding_ = 0;
  std::uint64_t bad_replies_ = 0;
  std::uint64_t crash_ns_ = 0;
  std::uint64_t first_ok_after_crash_ns_ = 0;
  std::vector<KeyTally> keys_;
};

}  // namespace e2e
