// ClientIO over SimNet: a static pool of IO threads, each owning one
// SimNet inbox channel (connection assignment is by client-id hash, the
// moral equivalent of the paper's round-robin: uniform and sticky).
//
// The reply path preserves the paper's structure: the ServiceManager does
// NOT write to the network itself — it hands each reply to the IO thread
// owning the client's "connection", and that thread serializes and
// performs the network send. Each IO thread owns a ReplyOutbox (Fig 3's
// reply queue) whose wake is one empty message injected into the thread's
// inbox per burst. A reply for a client with no known route (one that
// never sent to this replica) is dropped before the hand-off.
#pragma once

#include <memory>
#include <vector>

#include "metrics/thread_stats.hpp"
#include "smr/client_io.hpp"
#include "smr/reply_outbox.hpp"
#include "smr/request_gate.hpp"
#include "smr/transport.hpp"

namespace mcsmr::smr {

class SimClientIo : public ClientIo {
 public:
  /// One intake per partition; `router` may be null for a single pipeline.
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
  /// Serialize and send one reply (runs on the owning IO thread).
  void deliver(const ClientReplyFrame& reply);

  // Owned copy, not a reference: a stored Config& tied this object's
  // lifetime to the constructor argument (the PR-6 dangling-Config bug
  // class); lint_invariants.py forbids storing the parameter by ref.
  const Config config_;
  net::SimNetwork& net_;
  const net::NodeId self_node_;
  RequestGate gate_;
  const int io_threads_;

  /// client -> SimNet node to answer to (learned from request frames).
  ClientRegistry<net::NodeId> reply_nodes_;

  std::vector<std::unique_ptr<ReplyOutbox>> outboxes_;  // one per IO thread

  std::vector<metrics::NamedThread> threads_;
  bool started_ = false;
};

}  // namespace mcsmr::smr
