// Request admission logic shared by the ClientIo implementations.
//
// This is the per-request decision a ClientIO thread makes on arrival
// (§V-A + §III-B): redirect if we are not the leader, serve duplicates
// from the reply cache, suppress retries of in-flight requests, and
// otherwise push into the RequestQueue (a blocking push — the flow-control
// point that makes a saturated pipeline stop reading from clients).
// Partitioned replicas (num_partitions > 1) hand the gate one intake
// (RequestQueue + ReplyCache) per pipeline plus the PartitionRouter:
// single-partition requests flow into their pipeline's queue and dedup
// against that pipeline's cache; cross-partition requests are submitted to
// EVERY pipeline (under one mutex, so all streams see the same relative
// submission order) and dedup against partition 0's cache — the partition
// whose decided order fixes their execution order.
//
// Lease read fast-path (Config::read_path = lease): a read-only,
// single-partition request on a leader holding a live lease is answered
// directly from the local service — no Paxos instance, no batcher. The
// ReadIndex-style protocol: capture read_point = proposal_frontier at
// admission, wait for the pipeline's executed_frontier to reach it,
// re-check the lease, and execute the read on the service. Any miss (not
// leader, no lease, frontier lagging past the spin budget) falls back to
// the consensus path — the fast path is an optimization, never a
// requirement.
//
// Why the read point is the PROPOSAL frontier and not first_undecided:
// every replica is a learner and every executing replica replies to
// clients. At n=3 a follower decides on the Propose itself (the leader's
// vote plus its own make the quorum; its Accept goes to the proposer
// only); at n >= 5 Accepts are broadcast and a follower decides once
// q-2 more arrive. Either way a follower can decide, execute and ack a
// write one network hop BEFORE this leader collects its own quorum for
// it. A write acknowledged anywhere was, however, necessarily proposed
// by this leader first — and proposal_frontier is published before any
// Propose leaves the Protocol thread — so waiting for execution to reach
// the proposal frontier covers every ack a client can have observed.
// Safety across elections: the lease (paxos/engine.hpp) guarantees no
// other replica can win an election — and thus commit writes — before
// lease_until_ns on this node's clock; the drift margin baked into that
// deadline dwarfs the re-check-to-read window.
#pragma once

#include <mutex>
#include <thread>
#include <vector>

#include "smr/client_proto.hpp"
#include "smr/events.hpp"
#include "smr/partition.hpp"
#include "smr/reply_cache.hpp"
#include "smr/service.hpp"
#include "smr/shared_state.hpp"

namespace mcsmr::smr {

class RequestGate {
 public:
  struct Intake {
    RequestQueue* requests = nullptr;
    ReplyCache* reply_cache = nullptr;
    /// Lease read fast-path wiring (optional — null disables the fast
    /// path for this pipeline and every request takes the consensus path).
    SharedState* shared = nullptr;  ///< this pipeline's lease + frontier
    Service* service = nullptr;     ///< this pipeline's shard
  };

  /// One intake per partition, in index order. `router` may be null for a
  /// single pipeline. `shared` is partition 0's (leadership + counters).
  RequestGate(const Config& config, std::vector<Intake> intakes,
              const PartitionRouter* router, SharedState& shared)
      : config_(config), intakes_(std::move(intakes)), router_(router), shared_(shared) {}

  enum class Action {
    kForwarded,  ///< pushed on the RequestQueue; reply comes via ServiceManager
    kReplyNow,   ///< answer `reply` immediately from the calling IO thread
    kDrop,       ///< stale duplicate: no action
  };
  struct Outcome {
    Action action = Action::kDrop;
    ClientReplyFrame reply;
  };

  Outcome admit(const ClientRequestFrame& frame) {
    Outcome out;
    out.reply.client_id = frame.client_id;
    out.reply.seq = frame.seq;

    if (!shared_.is_leader.load(std::memory_order_relaxed)) {
      shared_.redirected_requests.fetch_add(1, std::memory_order_relaxed);
      out.action = Action::kReplyNow;
      out.reply.status = ReplyStatus::kRedirect;
      out.reply.payload = encode_leader_hint(config_.leader_of_view(
          shared_.view.load(std::memory_order_relaxed)));
      return out;
    }

    PartitionRouter::Route route;
    if (router_ != nullptr) route = router_->route(frame.payload, frame.client_id);

    if (!route.global && try_lease_read(frame, route.partition, out)) return out;

    ReplyCache& cache = *intakes_[route.global ? 0 : route.partition].reply_cache;

    const auto lookup = cache.lookup(frame.client_id, frame.seq);
    switch (lookup.state) {
      case ReplyCache::Lookup::kCached:
        shared_.cached_replies.fetch_add(1, std::memory_order_relaxed);
        out.action = Action::kReplyNow;
        out.reply.status = ReplyStatus::kOk;
        out.reply.payload = lookup.reply;
        return out;
      case ReplyCache::Lookup::kOld:
      case ReplyCache::Lookup::kExecuting:
        out.action = Action::kDrop;
        return out;
      case ReplyCache::Lookup::kNew:
        break;
    }

    cache.mark_admitted(frame.client_id, frame.seq);
    paxos::Request request{frame.client_id, frame.seq, frame.payload};
    if (route.global) {
      // Submit to every pipeline so each orders the request against its
      // own traffic; the barrier executes it once all streams reach it.
      // One mutex keeps the relative submission order identical across
      // streams under a stable leader.
      std::lock_guard<std::mutex> guard(cross_mu_);
      for (auto& intake : intakes_) {
        if (!intake.requests->push(request)) {
          out.action = Action::kDrop;  // shutting down
          return out;
        }
      }
    } else if (!intakes_[route.partition].requests->push(std::move(request))) {
      out.action = Action::kDrop;  // shutting down
      return out;
    }
    out.action = Action::kForwarded;
    return out;
  }

 private:
  /// Serve a read-only request locally under the leader lease. True =
  /// `out` is a kReplyNow answer; false = take the consensus path.
  bool try_lease_read(const ClientRequestFrame& frame, std::uint32_t partition, Outcome& out) {
    if (config_.read_path != ReadPath::kLease) return false;
    const Intake& intake = intakes_[partition];
    if (intake.service == nullptr || intake.shared == nullptr) return false;
    const RequestClass cls = intake.service->classify(frame.payload);
    if (!cls.read_only || cls.global) return false;

    SharedState& pipe = *intake.shared;
    const auto lease_live = [&] {
      return pipe.is_leader.load(std::memory_order_relaxed) &&
             pipe.lease_until_ns.load(std::memory_order_acquire) > config_.local_clock_ns();
    };
    const auto fall_back = [&] {
      shared_.lease_read_fallbacks.fetch_add(1, std::memory_order_relaxed);
      return false;
    };
    if (!lease_live()) return fall_back();

    // Read point: every write acknowledged before this read arrived was
    // proposed by this leader below proposal_frontier (see the header
    // comment — followers can ack BEFORE the leader decides, so
    // first_undecided would be unsafe here). Wait (bounded) for execution
    // to catch up, then re-check the lease — it may have expired while we
    // spun, and a new leader may have committed writes by then.
    const std::uint64_t read_point = pipe.proposal_frontier.load(std::memory_order_relaxed);
    for (std::uint32_t spins = 0;
         pipe.executed_frontier.load(std::memory_order_acquire) < read_point; ++spins) {
      if (spins >= kLeaseReadSpin) return fall_back();
      std::this_thread::yield();
    }
    if (!lease_live()) return fall_back();

    out.action = Action::kReplyNow;
    out.reply.status = ReplyStatus::kOk;
    out.reply.payload = intake.service->execute(frame.payload);
    shared_.lease_reads.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Spin budget of the lease read fast-path while waiting for execution to
  /// reach the read point; when exhausted the read falls back to consensus.
  static constexpr std::uint32_t kLeaseReadSpin = 4096;

  // Owned copy, not a reference: a stored Config& tied this object's
  // lifetime to the constructor argument (the PR-6 dangling-Config bug
  // class); lint_invariants.py forbids storing the parameter by ref.
  const Config config_;
  std::vector<Intake> intakes_;
  const PartitionRouter* router_;
  SharedState& shared_;
  std::mutex cross_mu_;
};

/// Small striped map from client id to connection handle, used by ClientIo
/// implementations to route replies (written on every request, read per
/// reply by send_reply and again by the IO thread that delivers it).
template <typename V>
class ClientRegistry {
 public:
  explicit ClientRegistry(std::size_t stripes = 16) : shards_(stripes) {}

  void put(paxos::ClientId client, V value) {
    Shard& shard = shard_for(client);
    std::lock_guard<std::mutex> guard(shard.mu);
    shard.map[client] = std::move(value);
  }

  std::optional<V> get(paxos::ClientId client) const {
    Shard& shard = shard_for(client);
    std::lock_guard<std::mutex> guard(shard.mu);
    auto it = shard.map.find(client);
    if (it == shard.map.end()) return std::nullopt;
    return it->second;
  }

  void erase(paxos::ClientId client) {
    Shard& shard = shard_for(client);
    std::lock_guard<std::mutex> guard(shard.mu);
    shard.map.erase(client);
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<paxos::ClientId, V> map;
  };
  Shard& shard_for(paxos::ClientId client) const {
    return shards_[static_cast<std::size_t>(client * 0x9E3779B97F4A7C15ull >> 32) %
                   shards_.size()];
  }
  mutable std::vector<Shard> shards_;
};

}  // namespace mcsmr::smr
