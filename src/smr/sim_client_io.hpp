// ClientIO over SimNet: a static pool of IO threads, each owning one
// SimNet inbox channel (connection assignment is by client-id hash, the
// moral equivalent of the paper's round-robin: uniform and sticky).
//
// The reply path preserves the paper's structure: the ServiceManager does
// NOT write to the network itself — it hands each reply to the IO thread
// owning the client's "connection", and that thread serializes and
// performs the network send. Each IO thread owns a reply queue (Fig 3);
// the ServiceManager pushes frames and injects one empty wake message per
// burst (edge-triggered via an atomic flag), so a batch of B replies costs
// B queue ops + 1 inbox hand-off. Config::queue_impl picks the queue's
// backend (lock-free ring or the paper's mutex queue; see backend_for()).
#pragma once

#include <vector>

#include "metrics/thread_stats.hpp"
#include "smr/client_io.hpp"
#include "smr/request_gate.hpp"
#include "smr/transport.hpp"

namespace mcsmr::smr {

class SimClientIo : public ClientIo {
 public:
  /// Single-pipeline convenience (legacy signature).
  SimClientIo(const Config& config, net::SimNetwork& net, net::NodeId self_node,
              RequestQueue& requests, ReplyCache& reply_cache, SharedState& shared);
  /// One intake per partition; `router` may be null for a single pipeline.
  /// With several pipelines the reply rings get one producer per
  /// ServiceManager, so the ring backend switches from SPSC to MPMC.
  SimClientIo(const Config& config, net::SimNetwork& net, net::NodeId self_node,
              std::vector<RequestGate::Intake> intakes, const PartitionRouter* router,
              SharedState& shared);
  ~SimClientIo() override;

  void start() override;
  void stop() override;

  void send_reply(paxos::ClientId client, paxos::RequestSeq seq, ReplyStatus status,
                  const Bytes& payload) override;

  /// The inbox channel a client with this id must send to.
  net::Channel channel_for_client(paxos::ClientId client) const {
    return kClientIoChannelBase + static_cast<net::Channel>(thread_for_client(client));
  }

 private:
  int thread_for_client(paxos::ClientId client) const {
    return static_cast<int>(client % static_cast<std::uint64_t>(io_threads_));
  }
  void io_loop(int thread_index);
  void drain_replies(int thread_index);

  // Owned copy, not a reference: a stored Config& tied this object's
  // lifetime to the constructor argument (the PR-6 dangling-Config bug
  // class); lint_invariants.py forbids storing the parameter by ref.
  const Config config_;
  net::SimNetwork& net_;
  const net::NodeId self_node_;
  RequestGate gate_;
  SharedState& shared_;
  const int io_threads_;

  /// client -> SimNet node to answer to (learned from request frames).
  ClientRegistry<net::NodeId> reply_nodes_;

  // Reply path: one queue + wake flag per IO thread. wake_pending_[t] true
  // means a wake message is already in flight (or the IO thread has not
  // yet drained), so pushes skip the inject; the IO thread clears the flag
  // BEFORE draining, which makes the push-then-exchange order on the
  // producer side lose no replies.
  std::vector<std::unique_ptr<PipelineQueue<ClientReplyFrame>>> reply_queues_;
  std::unique_ptr<std::atomic<bool>[]> wake_pending_;

  std::vector<metrics::NamedThread> threads_;
  bool started_ = false;
};

}  // namespace mcsmr::smr
