// Per-layer replay for the traced run: the workload's own generated
// requests pushed, single-threaded, through each layer's public functions
// — the client codec, the batch builder, three in-memory Paxos engines,
// the service, and a SegmentStorage — to give each layer's cost per item
// without the thread hand-offs around it.
#pragma once

#include <string>

#include "workload.hpp"

namespace e2e {

struct ReplayCosts {
  double decode_ns = 0;        ///< decode_client_frame per request frame
  double reply_encode_ns = 0;  ///< encode_client_reply per reply
  double batch_add_ns = 0;     ///< BatchBuilder::add + poll per request, BSZ from Config
  double engine_ns_per_instance = 0;  ///< propose -> decided on all three engines
  double execute_ns = 0;       ///< Service::execute per request
  double classify_ns = 0;      ///< Service::classify per request
  double append_ns = 0;        ///< SegmentStorage::append per batch record
  double sync_p50_ms = 0;      ///< SegmentStorage::sync after each append
};

/// `reqs_per_batch` is the batch size the traced cluster ran at; the
/// engines order batches of that many requests. `dir` is a scratch
/// directory for the segment files (removed before returning).
ReplayCosts replay_layers(const Workload& workload, const OpStream& ops,
                          double reqs_per_batch, const std::string& dir);

}  // namespace e2e
