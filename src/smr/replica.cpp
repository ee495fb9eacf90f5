#include "smr/replica.hpp"

#include "common/logging.hpp"
#include "smr/sim_client_io.hpp"
#include "smr/tcp_client_io.hpp"

namespace mcsmr::smr {

namespace {
/// Per-partition copy of the replica config: thread names gain a "pN/"
/// segment so the per-thread figures can tell pipelines apart. A single
/// pipeline keeps the exact pre-partitioning names.
Config partition_config(const Config& config, std::uint32_t index) {
  Config copy = config;
  if (config.num_partitions > 1) {
    copy.thread_name_prefix += "p" + std::to_string(index) + "/";
  }
  return copy;
}
}  // namespace

Replica::Partition::Partition(const Config& replica_config, ReplicaId self,
                              std::uint32_t partition_index, ReplicaIo& replica_io,
                              std::unique_ptr<Service> svc)
    : index(partition_index), config(partition_config(replica_config, partition_index)),
      shared(config.n),
      request_queue(config.request_queue_cap, "RequestQueue"),
      proposal_queue(config.queue_impl, config.proposal_queue_cap, "ProposalQueue"),
      dispatcher_queue(kDispatcherQueueCap, "DispatcherQueue"),
      decision_queue(kDecisionQueueCap, "DecisionQueue"),
      service(std::move(svc)),
      reply_cache(config.reply_cache_stripes, config.admitted_ttl_ns),
      storage(paxos::make_log_storage(config, self, partition_index)),
      engine(config, self, storage.get()),
      retransmitter(config, PartitionIo(replica_io, partition_index)),
      // Affinity executor: the Batcher classifies at build time and ships
      // the classified batch encoding (`service` is declared before
      // `batcher` in the Partition struct, so the pointer is live here).
      batcher(config, request_queue, proposal_queue, dispatcher_queue, shared,
              config.executor_impl == ExecutorImpl::kAffinity ? service.get() : nullptr) {
  replica_io.register_partition(dispatcher_queue, shared);
}

Replica::Replica(const Config& config, ReplicaId self,
                 std::unique_ptr<PeerTransport> transport, const ServiceFactory& factory)
    : config_(config), self_(self), transport_(std::move(transport)),
      replica_io_(config_, self, *transport_) {
  const std::uint32_t partitions = config_.num_partitions < 1 ? 1 : config_.num_partitions;
  if (partitions > 1) barrier_ = std::make_unique<CrossPartitionBarrier>(partitions);
  partitions_.reserve(partitions);
  for (std::uint32_t p = 0; p < partitions; ++p) {
    partitions_.push_back(
        std::make_unique<Partition>(config_, self, p, replica_io_, factory()));
  }
  if (partitions > 1) {
    router_ = std::make_unique<PartitionRouter>(*partitions_.front()->service, partitions);
    barrier_->set_global_exec(
        [this](const paxos::Request& request) { execute_cross_partition(request); });
    barrier_->set_nudge([this] { nudge_partitions(); });
  }
  std::vector<FailureDetector::PartitionFeed> feeds;
  feeds.reserve(partitions);
  for (auto& partition : partitions_) {
    feeds.push_back(
        FailureDetector::PartitionFeed{&partition->dispatcher_queue, &partition->shared});
  }
  failure_detector_ =
      std::make_unique<FailureDetector>(config_, self, replica_io_, std::move(feeds));
}

std::vector<RequestGate::Intake> Replica::intakes() {
  std::vector<RequestGate::Intake> intakes;
  intakes.reserve(partitions_.size());
  for (auto& partition : partitions_) {
    intakes.push_back(RequestGate::Intake{&partition->request_queue, &partition->reply_cache,
                                          &partition->shared, partition->service.get()});
  }
  return intakes;
}

void Replica::wire_client_io(std::unique_ptr<ClientIo> client_io) {
  client_io_ = std::move(client_io);
  for (auto& p : partitions_) {
    PartitionHooks hooks;
    hooks.index = p->index;
    hooks.barrier = barrier_.get();
    hooks.router = router_.get();
    if (barrier_) {
      hooks.capture = [this] { capture_manifest(); };
      hooks.install = [this](const SnapshotInstallEvent& event) { install_manifest(event); };
    }
    p->service_manager = std::make_unique<ServiceManager>(
        p->config, p->decision_queue, *p->service, p->reply_cache, *client_io_,
        p->dispatcher_queue, p->shared, std::move(hooks));
    p->protocol = std::make_unique<ProtocolThread>(
        p->config, p->engine, *p->storage, p->dispatcher_queue, p->proposal_queue,
        p->decision_queue, PartitionIo(replica_io_, p->index), p->retransmitter,
        p->shared);
    // Snapshot provider: read on the Protocol thread, produced by the
    // ServiceManager; the shared_ptr hand-off is the only synchronization.
    ServiceManager* manager = p->service_manager.get();
    p->engine.set_snapshot_provider([manager]() -> std::optional<paxos::SnapshotData> {
      auto snapshot = manager->latest_snapshot();
      if (!snapshot) return std::nullopt;
      return *snapshot;
    });
  }
}

// --- cross-partition callbacks (barrier cycles; all pipelines quiesced) -----

void Replica::execute_cross_partition(const paxos::Request& request) {
  // Covered anywhere => covered everywhere (installs are whole-replica
  // atomic and rendezvous updates hit every cache below), so one check
  // per cache suffices to make re-execution impossible.
  for (auto& p : partitions_) {
    if (p->reply_cache.executed(request.client_id, request.seq)) return;
  }
  std::vector<Service*> shards;
  shards.reserve(partitions_.size());
  for (auto& p : partitions_) shards.push_back(p->service.get());
  const ShardView view(shards);
  Bytes reply = partitions_.front()->service->execute_global(request.payload, view);
  for (auto& p : partitions_) p->reply_cache.update(request.client_id, request.seq, reply);
  partitions_.front()->shared.executed_requests.fetch_add(1, std::memory_order_relaxed);
  client_io_->send_reply(request.client_id, request.seq, ReplyStatus::kOk, reply);
}

void Replica::capture_manifest() {
  PartitionManifest manifest;
  manifest.parts.reserve(partitions_.size());
  for (auto& p : partitions_) {
    PartitionManifest::Part part;
    part.next_instance = p->service_manager->executed_instances();
    part.state = p->service->snapshot();
    part.reply_cache = p->reply_cache.serialize();
    manifest.parts.push_back(std::move(part));
  }
  // ONE immutable buffer shared by every partition's snapshot slot: the
  // manifest is identical for all P engines, and copying it P times was
  // pure waste (tests assert buffer identity across slots).
  const auto encoded = paxos::shared_state_bytes(encode_manifest(manifest));
  for (std::size_t q = 0; q < partitions_.size(); ++q) {
    auto snapshot = std::make_shared<paxos::SnapshotData>();
    snapshot->next_instance = manifest.parts[q].next_instance;
    snapshot->state = encoded;  // whole-replica manifest, served per engine
    partitions_[q]->service_manager->set_latest_snapshot(std::move(snapshot));
    // Tell each Protocol thread it may prune its log below its own cut.
    partitions_[q]->dispatcher_queue.try_push(
        LocalSnapshotEvent{manifest.parts[q].next_instance});
  }
}

void Replica::install_manifest(const SnapshotInstallEvent& event) {
  PartitionManifest manifest;
  try {
    manifest = decode_manifest(event.state);
  } catch (const DecodeError& error) {
    LOG_ERROR << "dropping malformed snapshot manifest: " << error.what();
    return;
  }
  if (manifest.parts.size() != partitions_.size()) {
    LOG_ERROR << "snapshot manifest has " << manifest.parts.size() << " parts, expected "
              << partitions_.size();
    return;
  }
  for (std::size_t q = 0; q < partitions_.size(); ++q) {
    auto& part = manifest.parts[q];
    auto& partition = *partitions_[q];
    // A pipeline already past the manifest cut keeps its (newer) state.
    if (part.next_instance <= partition.service_manager->executed_instances()) continue;
    partition.service->install(part.state);
    partition.reply_cache.install(part.reply_cache);
    partition.service_manager->set_executed_instances(part.next_instance);
    // Let the pipeline's engine adopt the cut (prune + fast-forward
    // delivery) through its normal offer path; the redundant
    // InstallSnapshot it emits is dropped by the ServiceManager's stale
    // guard since executed_instances already equals the cut.
    partition.dispatcher_queue.try_push(PeerMessageEvent{
        self_, paxos::SnapshotOffer{part.next_instance, event.state, Bytes{}}});
  }
}

void Replica::nudge_partitions() {
  for (auto& p : partitions_) p->decision_queue.try_push(BarrierNudgeEvent{});
}

// --- factories --------------------------------------------------------------

std::unique_ptr<Replica> Replica::create_sim(const Config& config, ReplicaId self,
                                             net::SimNetwork& net,
                                             const std::vector<net::NodeId>& replica_nodes,
                                             ServiceFactory factory) {
  auto transport = std::make_unique<SimPeerTransport>(net, replica_nodes, self);
  auto replica =
      std::unique_ptr<Replica>(new Replica(config, self, std::move(transport), factory));
  // The ClientIo keeps a Config reference: hand it the replica's own copy,
  // not the caller's argument (which may be a temporary that dies before
  // the IO threads ever run).
  replica->wire_client_io(std::make_unique<SimClientIo>(
      replica->config_, net, replica_nodes[self], replica->intakes(),
      replica->router_.get(), replica->partitions_.front()->shared));
  return replica;
}

std::unique_ptr<Replica> Replica::create_sim(const Config& config, ReplicaId self,
                                             net::SimNetwork& net,
                                             const std::vector<net::NodeId>& replica_nodes,
                                             std::unique_ptr<Service> service) {
  if (config.num_partitions > 1) {
    LOG_ERROR << "create_sim(unique_ptr<Service>) cannot shard one instance over "
              << config.num_partitions << " partitions; pass a ServiceFactory";
    return nullptr;
  }
  // One-shot factory: P == 1 guarantees a single invocation.
  auto holder = std::make_shared<std::unique_ptr<Service>>(std::move(service));
  return create_sim(config, self, net, replica_nodes,
                    [holder] { return std::move(*holder); });
}

std::unique_ptr<Replica> Replica::create_tcp(const Config& config, ReplicaId self,
                                             std::uint16_t peer_base_port,
                                             std::uint16_t client_port,
                                             ServiceFactory factory,
                                             std::uint64_t deadline_ns) {
  auto transport = TcpPeerTransport::connect_all(config, self, peer_base_port, deadline_ns);
  if (transport == nullptr) return nullptr;
  auto replica =
      std::unique_ptr<Replica>(new Replica(config, self, std::move(transport), factory));
  // As in create_sim: the ClientIo's Config reference must outlive it.
  auto client_io = std::make_unique<TcpClientIo>(replica->config_, client_port,
                                                 replica->intakes(), replica->router_.get(),
                                                 replica->partitions_.front()->shared);
  if (!client_io->valid()) return nullptr;
  replica->wire_client_io(std::move(client_io));
  return replica;
}

std::unique_ptr<Replica> Replica::create_tcp(const Config& config, ReplicaId self,
                                             std::uint16_t peer_base_port,
                                             std::uint16_t client_port,
                                             std::unique_ptr<Service> service,
                                             std::uint64_t deadline_ns) {
  if (config.num_partitions > 1) {
    LOG_ERROR << "create_tcp(unique_ptr<Service>) cannot shard one instance over "
              << config.num_partitions << " partitions; pass a ServiceFactory";
    return nullptr;
  }
  // One-shot factory: P == 1 guarantees a single invocation.
  auto holder = std::make_shared<std::unique_ptr<Service>>(std::move(service));
  return create_tcp(config, self, peer_base_port, client_port,
                    [holder] { return std::move(*holder); }, deadline_ns);
}

Replica::~Replica() { stop(); }

void Replica::start() {
  if (started_) return;
  started_ = true;
  replica_io_.start();
  for (auto& p : partitions_) p->retransmitter.start();
  for (auto& p : partitions_) p->service_manager->start();
  for (auto& p : partitions_) p->protocol->start();
  for (auto& p : partitions_) p->batcher.start();
  client_io_->start();
  failure_detector_->start();
}

void Replica::stop() {
  if (!started_) return;
  started_ = false;
  // Stop intake first, then unwedge every stage's blocking edge (closing a
  // queue makes pending pushes fail and pending pops drain), then join.
  failure_detector_->stop();
  client_io_->stop();
  for (auto& p : partitions_) p->request_queue.close();
  // Unpark ServiceManagers waiting on a cross-partition rendezvous before
  // the decision queues close under them.
  if (barrier_) barrier_->close();
  for (auto& p : partitions_) p->proposal_queue.close();
  for (auto& p : partitions_) p->batcher.stop();
  for (auto& p : partitions_) p->decision_queue.close();
  for (auto& p : partitions_) p->protocol->stop();  // closes the dispatcher queue
  for (auto& p : partitions_) p->retransmitter.stop();
  for (auto& p : partitions_) p->service_manager->stop();
  replica_io_.stop();
}

// --- aggregated introspection ----------------------------------------------

std::uint32_t Replica::window_in_use() const {
  std::uint32_t total = 0;
  for (const auto& p : partitions_) {
    total += p->shared.window_in_use.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Replica::executed_requests() const {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) {
    total += p->shared.executed_requests.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Replica::decided_instances() const {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) {
    total += p->shared.decided_instances.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t Replica::request_queue_size() const {
  std::size_t total = 0;
  for (const auto& p : partitions_) total += p->request_queue.size();
  return total;
}

std::size_t Replica::proposal_queue_size() const {
  std::size_t total = 0;
  for (const auto& p : partitions_) total += p->proposal_queue.size();
  return total;
}

std::size_t Replica::dispatcher_queue_size() const {
  std::size_t total = 0;
  for (const auto& p : partitions_) total += p->dispatcher_queue.size();
  return total;
}

std::size_t Replica::decision_queue_size() const {
  std::size_t total = 0;
  for (const auto& p : partitions_) total += p->decision_queue.size();
  return total;
}

Bytes Replica::state_manifest() const {
  PartitionManifest manifest;
  manifest.parts.reserve(partitions_.size());
  for (const auto& p : partitions_) {
    PartitionManifest::Part part;
    part.state = p->service->snapshot();
    manifest.parts.push_back(std::move(part));
  }
  return encode_manifest(manifest);
}

std::uint16_t Replica::client_port() const {
  if (auto* tcp = dynamic_cast<TcpClientIo*>(client_io_.get())) return tcp->port();
  return 0;
}

}  // namespace mcsmr::smr
