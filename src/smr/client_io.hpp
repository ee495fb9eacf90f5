// ClientIO module interface (§V-A).
//
// Implementations own a static pool of I/O threads handling client
// connections: they deserialize requests, consult the reply cache, either
// answer immediately (cached duplicate / redirect) or push the request on
// the RequestQueue (blocking push = backpressure: a stalled pipeline stops
// request reading, which over TCP pushes back to the clients).
//
// The ServiceManager hands each executed reply back to the ClientIO thread
// owning that client's connection via send_reply(); the owning thread does
// the serialization and the network write (Fig 3's per-thread reply queue,
// one ReplyOutbox per IO thread; see smr/reply_outbox.hpp).
#pragma once

#include "common/bytes.hpp"
#include "smr/client_proto.hpp"

namespace mcsmr::smr {

class ClientIo {
 public:
  virtual ~ClientIo() = default;

  virtual void start() = 0;
  virtual void stop() = 0;

  /// Route a reply to the client's connection (thread-safe; called by
  /// every pipeline's ServiceManager or executor worker threads).
  virtual void send_reply(paxos::ClientId client, paxos::RequestSeq seq, ReplyStatus status,
                          const Bytes& payload) = 0;
};

}  // namespace mcsmr::smr
