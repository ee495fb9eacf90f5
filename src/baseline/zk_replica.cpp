#include "baseline/zk_replica.hpp"

#include "common/busy_work.hpp"
#include "common/logging.hpp"
#include "smr/sim_client_io.hpp"

namespace mcsmr::baseline {

namespace {
// A private dispatcher the reused ReplicaIo requires but the baseline
// never reads (it spawns no receiver threads there).
Config baseline_config(Config config) {
  config.window_size = 4096;       // ZK pipelines per-request proposals freely
  config.reply_cache_stripes = 1;  // the coarse-locked table of §V-D
  return config;
}
}  // namespace

ZkReplica::ZkReplica(const Config& config, ReplicaId self,
                     std::unique_ptr<smr::PeerTransport> transport,
                     std::unique_ptr<Service> service, ZkParams params)
    : config_(baseline_config(config)), self_(self), params_(params), shared_(config.n),
      request_queue_(config.request_queue_cap, "RequestQueue"),
      sync_queue_(config.request_queue_cap, "SyncQueue"),
      commit_queue_(smr::kDecisionQueueCap, "CommitQueue"),
      transport_(std::move(transport)), service_(std::move(service)),
      reply_cache_(/*stripes=*/1, config.admitted_ttl_ns), engine_(config_, self),
      replica_io_(config_, self, *transport_,
                  smr::ReplicaIo::Options{"Sender-", /*inline_sends=*/false}),
      retransmitter_(config_, replica_io_) {
  replica_io_.register_partition(unused_dispatcher_, shared_);
}

std::unique_ptr<ZkReplica> ZkReplica::create_sim(const Config& config, ReplicaId self,
                                                 net::SimNetwork& net,
                                                 const std::vector<net::NodeId>& replica_nodes,
                                                 std::unique_ptr<Service> service,
                                                 ZkParams params) {
  auto transport = std::make_unique<smr::SimPeerTransport>(net, replica_nodes, self);
  auto replica = std::unique_ptr<ZkReplica>(
      new ZkReplica(config, self, std::move(transport), std::move(service), params));
  replica->client_io_ = std::make_unique<smr::SimClientIo>(
      replica->config_, net, replica_nodes[self],
      std::vector<smr::RequestGate::Intake>{{&replica->request_queue_, &replica->reply_cache_}},
      /*router=*/nullptr, replica->shared_);
  return replica;
}

ZkReplica::~ZkReplica() { stop(); }

void ZkReplica::burn(std::uint64_t ns) { burn_cpu_ns(ns); }

void ZkReplica::start() {
  if (started_) return;
  started_ = true;
  running_.store(true);

  replica_io_.start(/*spawn_receivers=*/false);
  retransmitter_.start();

  // Run Phase 1 for view 0 if we lead it.
  {
    std::lock_guard<metrics::InstrumentedMutex> guard(global_lock_);
    std::vector<paxos::Effect> effects;
    engine_.start(effects);
    apply_effects(effects);
  }

  threads_.emplace_back(config_.thread_name_prefix + "ProcessThread", [this] { prep_loop(); });
  threads_.emplace_back(config_.thread_name_prefix + "SyncThread", [this] { sync_loop(); });
  threads_.emplace_back(config_.thread_name_prefix + "CommitProcessor", [this] { commit_loop(); });
  for (int peer = 0; peer < config_.n; ++peer) {
    if (static_cast<ReplicaId>(peer) == self_) continue;
    const auto id = static_cast<ReplicaId>(peer);
    threads_.emplace_back(config_.thread_name_prefix + "LearnerHandler-" + std::to_string(peer),
                          [this, id] { learner_loop(id); });
  }
  client_io_->start();
}

void ZkReplica::stop() {
  if (!started_) return;
  started_ = false;
  running_.store(false);
  client_io_->stop();
  request_queue_.close();
  sync_queue_.close();
  commit_queue_.close();
  retransmitter_.stop();
  replica_io_.stop();  // transport shutdown wakes learner threads
  threads_.clear();    // joins
}

void ZkReplica::apply_effects(std::vector<paxos::Effect>& effects) {
  for (auto& effect : effects) {
    std::visit(
        [&](auto& e) {
          using T = std::decay_t<decltype(e)>;
          if constexpr (std::is_same_v<T, paxos::SendTo>) {
            replica_io_.send(e.to, e.message);
          } else if constexpr (std::is_same_v<T, paxos::BroadcastMsg>) {
            replica_io_.broadcast(e.message);
          } else if constexpr (std::is_same_v<T, paxos::Deliver>) {
            shared_.decided_instances.fetch_add(1, std::memory_order_relaxed);
            commit_queue_.push(smr::Decision{e.instance, std::move(e.value)});
          } else if constexpr (std::is_same_v<T, paxos::ScheduleRetransmit>) {
            retransmitter_.schedule(e.key, std::move(e.message));
          } else if constexpr (std::is_same_v<T, paxos::CancelRetransmit>) {
            retransmitter_.cancel(e.key);
          } else if constexpr (std::is_same_v<T, paxos::CancelAllRetransmits>) {
            retransmitter_.cancel_all();
          } else if constexpr (std::is_same_v<T, paxos::ViewChanged>) {
            shared_.view.store(e.view, std::memory_order_relaxed);
            shared_.is_leader.store(e.is_leader, std::memory_order_relaxed);
          } else if constexpr (std::is_same_v<T, paxos::InstallSnapshot>) {
            // Baseline does not implement state transfer.
          }
        },
        effect);
  }
  effects.clear();
}

void ZkReplica::prep_loop() {
  while (auto request = request_queue_.pop()) {
    // Per-request preparation under the global lock (zxid assignment,
    // session checks — the ZK PrepRequestProcessor / proposal path).
    Bytes proposal;
    {
      std::lock_guard<metrics::InstrumentedMutex> guard(global_lock_);
      burn(params_.prep_cost_ns);
      proposal = paxos::encode_batch({*request});  // no batching: one request
    }
    if (!sync_queue_.push(std::move(proposal))) return;
  }
}

void ZkReplica::sync_loop() {
  while (auto proposal = sync_queue_.pop()) {
    // Transaction-log append: checksum the payload (real work) plus the
    // configured per-append overhead — even a ramdisk log pays this.
    std::uint64_t crc = 0;
    for (std::uint8_t byte : *proposal) crc = crc * 131 + byte;
    (void)crc;
    burn(params_.sync_cost_ns);

    // Propose under the global lock.
    std::lock_guard<metrics::InstrumentedMutex> guard(global_lock_);
    std::vector<paxos::Effect> effects;
    if (!engine_.on_batch(std::move(*proposal), effects)) {
      // Not leader (yet): request is lost; clients retry elsewhere.
      shared_.dropped_batches.fetch_add(1, std::memory_order_relaxed);
    }
    apply_effects(effects);
  }
}

void ZkReplica::learner_loop(ReplicaId peer) {
  while (auto frame = transport_->recv_from(peer)) {
    shared_.last_recv_ns[peer].store(mono_ns(), std::memory_order_relaxed);
    paxos::WireMessage wire;
    try {
      wire = paxos::decode_message(*frame);
    } catch (const DecodeError& error) {
      LOG_WARN << "baseline: malformed frame from " << peer << ": " << error.what();
      continue;
    }
    // Followers pay the log-append cost for every proposal they accept.
    if (std::holds_alternative<paxos::Propose>(wire.message)) {
      burn(params_.sync_cost_ns);
    }
    std::lock_guard<metrics::InstrumentedMutex> guard(global_lock_);
    std::vector<paxos::Effect> effects;
    engine_.on_message(peer, wire.message, effects);
    apply_effects(effects);
  }
}

void ZkReplica::commit_loop() {
  while (auto decision = commit_queue_.pop()) {
    std::vector<paxos::Request> requests;
    try {
      requests = paxos::decode_batch(decision->batch);
    } catch (const DecodeError&) {
      continue;
    }
    for (auto& request : requests) {
      // The commit path holds the global lock while applying — the
      // CommitProcessor bottleneck of Fig 1b / Fig 14.
      Bytes reply;
      {
        std::lock_guard<metrics::InstrumentedMutex> guard(global_lock_);
        if (reply_cache_.executed(request.client_id, request.seq)) continue;
        reply = service_->execute(request.payload);
        reply_cache_.update(request.client_id, request.seq, reply);
        burn(params_.commit_cost_ns);
        shared_.executed_requests.fetch_add(1, std::memory_order_relaxed);
      }
      client_io_->send_reply(request.client_id, request.seq, smr::ReplyStatus::kOk, reply);
    }
  }
}

}  // namespace mcsmr::baseline
