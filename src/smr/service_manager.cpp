#include "smr/service_manager.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace mcsmr::smr {

ServiceManager::ServiceManager(const Config& config, DecisionQueue& decisions,
                               Service& service, ReplyCache& reply_cache, ClientIo& client_io,
                               DispatcherQueue& dispatcher, SharedState& shared,
                               PartitionHooks hooks)
    : config_(config), decisions_(decisions), service_(service), reply_cache_(reply_cache),
      client_io_(client_io), dispatcher_(dispatcher), shared_(shared),
      hooks_(std::move(hooks)) {
  if (config_.executor_impl == ExecutorImpl::kAffinity) {
    affinity_ = std::make_unique<AffinityExecutor>(config_, service_, reply_cache_, client_io_,
                                                   shared_);
  }
}

ServiceManager::~ServiceManager() { stop(); }

void ServiceManager::start() {
  if (started_) return;
  started_ = true;
  if (affinity_) affinity_->start();
  // The paper labels this thread "Replica" in its per-thread figures.
  thread_ = metrics::NamedThread(config_.thread_name_prefix + "Replica", [this] { run(); });
}

void ServiceManager::stop() {
  if (!started_) return;  // never started: nothing to join or unwind
  // run() exits when the DecisionQueue closes (Replica::stop closes it).
  // Join order matters: with the SM thread gone, every task of every
  // submitted batch — including all markers of every rendezvous — is
  // already in the worker queues, so the executor's close-and-drain retires
  // them all.
  thread_.join();
  if (affinity_) affinity_->stop();
  started_ = false;
}

void ServiceManager::run() {
  while (auto event = decisions_.pop()) {
    std::visit(
        [&](auto& e) {
          using T = std::decay_t<decltype(e)>;
          if constexpr (std::is_same_v<T, Decision>) {
            // A whole-replica manifest install can fast-forward this
            // pipeline past decisions its engine re-delivers afterwards;
            // consuming them twice would drift the instance counter.
            if (e.instance < executed_instances_.load(std::memory_order_relaxed)) return;
            execute_batch(e.instance, e.batch);
            maybe_snapshot(e.instance);
          } else if constexpr (std::is_same_v<T, SnapshotInstallEvent>) {
            handle_install(e);
          } else if constexpr (std::is_same_v<T, BarrierNudgeEvent>) {
            // Wake-up only; the help check below does the work.
          }
        },
        *event);
    maybe_help_barrier();
  }
}

void ServiceManager::maybe_help_barrier() {
  if (hooks_.barrier != nullptr && hooks_.barrier->quiesce_requested()) {
    // A cycle reads (capture) or rewrites (install) this shard's service
    // state: park the affinity workers for its duration.
    if (affinity_) affinity_->quiesce();
    hooks_.barrier->help(hooks_.index);
    if (affinity_) affinity_->resume();
  }
}

bool ServiceManager::cross_partition(const paxos::Request& request) const {
  return hooks_.barrier != nullptr &&
         hooks_.router->route(request.payload, request.client_id).global;
}

bool ServiceManager::wait_cross_partition(const paxos::Request& request) {
  while (!reply_cache_.executed(request.client_id, request.seq)) {
    if (!hooks_.barrier->arrive(hooks_.index, request)) return false;
  }
  return true;
}

void ServiceManager::execute_batch(paxos::InstanceId instance, const Bytes& batch) {
  paxos::DecodedBatch decoded;
  try {
    decoded = paxos::decode_any_batch(batch);
  } catch (const DecodeError& error) {
    LOG_ERROR << "undecodable batch at instance " << instance << ": " << error.what()
              << "; skipping its requests but counting the instance";
    // The instance WAS consumed from the decided sequence: count it so
    // executed_instances_ stays in step with snapshot next_instance.
    mark_instance_consumed(instance);
    return;
  }
  // Stamp the deciding instance into the service before dispatch:
  // versioned services record it as the per-key last-write version. The
  // decided sequence is identical on every replica, so the stamps are too
  // (a cross-partition request executes with every shard parked at the
  // batch holding that request in its own stream — still deterministic).
  // Affinity workers don't read this cell (they get the instance as an
  // execute_at argument); the stamp still feeds the cross-partition
  // execute_global path, which runs on an SM thread at a barrier cycle.
  service_.note_instance(instance);
  if (affinity_) {
    if (!decoded.classified) {
      // v1 batch — an old leader's proposal or an engine-generated no-op.
      // classify() is pure and deterministic, so classifying here yields
      // exactly the footprints the batcher would have embedded.
      decoded.classes.reserve(decoded.requests.size());
      for (const auto& request : decoded.requests) {
        decoded.classes.push_back(service_.classify(request.payload));
      }
    }
    execute_affinity(instance, decoded.requests, decoded.classes);
  } else {
    execute_serial(decoded.requests);
  }
  mark_instance_consumed(instance);
}

void ServiceManager::mark_instance_consumed(paxos::InstanceId instance) {
  // Monotonic max, not an increment: a whole-replica manifest install can
  // fast-forward the counter past `instance` WHILE this batch is parked
  // at the barrier (wait_cross_partition). Incrementing on top of the
  // fast-forward would overcount and make the stale-decision guard in
  // run() drop the first post-cut instance forever. The install only
  // writes while this thread is parked (barrier-quiesced), so a plain
  // load/store pair is race-free.
  const std::uint64_t next = instance + 1;
  if (executed_instances_.load(std::memory_order_relaxed) < next) {
    executed_instances_.store(next, std::memory_order_relaxed);
    if (affinity_) {
      // Affinity mode: execution is still in flight on the workers, so
      // this thread may not publish the frontier itself. A token in every
      // worker queue advances it once ALL workers are past this instance (the
      // lease read path acquires the frontier, then reads service state).
      affinity_->publish_frontier(instance);
      return;
    }
    // Release-publish AFTER the batch's effects are in the service: the
    // lease read path acquires the frontier, then reads service state.
    shared_.executed_frontier.store(next, std::memory_order_release);
  }
}

void ServiceManager::execute_serial(const std::vector<paxos::Request>& requests) {
  for (const auto& request : requests) {
    // Double-decide dedup: a retried request can legitimately be ordered
    // twice across a view change; execute only the first occurrence.
    if (reply_cache_.executed(request.client_id, request.seq)) continue;
    if (cross_partition(request)) {
      // Executed at a barrier rendezvous (reply sent there); this stream
      // just holds position until it happens.
      if (!wait_cross_partition(request)) return;  // shutting down
      continue;
    }
    Bytes reply = service_.execute(request.payload);
    reply_cache_.update(request.client_id, request.seq, reply);
    shared_.executed_requests.fetch_add(1, std::memory_order_relaxed);
    client_io_.send_reply(request.client_id, request.seq, ReplyStatus::kOk, reply);
  }
}

void ServiceManager::execute_affinity(paxos::InstanceId instance,
                                      std::vector<paxos::Request>& requests,
                                      const std::vector<RequestClass>& classes) {
  // Dedup BEFORE dispatch (double-decides across view changes, and a
  // stale lower seq decided after a newer one in the same batch) against
  // enqueued_seq_, not the reply cache: workers update the cache as they
  // finish, so it lags what this thread has already routed.
  std::vector<paxos::Request> todo;
  std::vector<RequestClass> todo_classes;
  todo.reserve(requests.size());
  todo_classes.reserve(requests.size());
  const auto flush = [&] {
    if (todo.empty()) return;
    affinity_->submit(instance, std::move(todo), std::move(todo_classes));
    todo.clear();
    todo_classes.clear();
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    paxos::Request& request = requests[i];
    auto [it, inserted] = enqueued_seq_.try_emplace(request.client_id, 0);
    if (!inserted && request.seq <= it->second) continue;  // double-decide
    if (reply_cache_.executed(request.client_id, request.seq)) {
      // A manifest install fast-forwarded past this request on another
      // replica's state: the cache knows more than the dispatch map.
      it->second = std::max(it->second, request.seq);
      continue;
    }
    it->second = request.seq;
    if (cross_partition(request)) {
      // Barrier rendezvous across pipelines: drain this pipeline's
      // workers first so the cycle sees the shard quiesced exactly at
      // this request, then let them stream again.
      flush();
      affinity_->quiesce();
      const bool alive = wait_cross_partition(request);
      affinity_->resume();
      if (!alive) return;  // shutting down
      continue;
    }
    todo.push_back(std::move(request));
    todo_classes.push_back(classes[i]);
  }
  flush();
}

void ServiceManager::maybe_snapshot(paxos::InstanceId instance) {
  if (config_.snapshot_interval_instances == 0) return;
  if ((instance + 1) % config_.snapshot_interval_instances != 0) return;

  if (hooks_.barrier != nullptr) {
    // Partitioned: snapshots are whole-replica manifests captured with
    // every pipeline quiesced. Partition 0's instance count is the sole
    // trigger so one interval yields one manifest, not P of them.
    if (hooks_.index == 0 && hooks_.capture) {
      if (affinity_) affinity_->quiesce();
      hooks_.barrier->quiesce(hooks_.index, hooks_.capture);
      if (affinity_) affinity_->resume();
    }
    return;
  }

  // Batch-boundary quiesce point: execute_batch has returned, so serial
  // execution is idle. Affinity workers stream across batches, so they
  // must be parked explicitly for the capture.
  if (affinity_) affinity_->quiesce();
  auto snapshot = std::make_shared<paxos::SnapshotData>();
  snapshot->next_instance = instance + 1;
  snapshot->state = paxos::shared_state_bytes(service_.snapshot());
  snapshot->reply_cache = reply_cache_.serialize();
  {
    std::lock_guard<std::mutex> guard(snapshot_mu_);
    latest_snapshot_ = std::move(snapshot);
  }
  if (affinity_) affinity_->resume();
  // Tell the Protocol thread it may prune the log below this point.
  dispatcher_.try_push(LocalSnapshotEvent{instance + 1});
}

void ServiceManager::handle_install(const SnapshotInstallEvent& event) {
  if (hooks_.barrier == nullptr) {
    // Park the affinity workers across the state swap: the direct frontier
    // store below is only race-free with no token in flight (CAS-max on
    // the shared frontier can't regress, but the slots could republish a
    // stale minimum mid-install).
    if (affinity_) affinity_->quiesce();
    service_.install(event.state);
    reply_cache_.install(event.reply_cache);
    executed_instances_.store(event.next_instance, std::memory_order_relaxed);
    shared_.executed_frontier.store(event.next_instance, std::memory_order_release);
    if (affinity_) affinity_->resume();
    return;
  }
  // Partitioned: the offer carries a whole-replica manifest; install it
  // atomically across all pipelines at a quiesce cycle. A stale offer
  // (this pipeline already past it — e.g. the engine's redundant
  // InstallSnapshot after a sibling-driven install) is dropped here.
  if (event.next_instance <= executed_instances_.load(std::memory_order_relaxed)) return;
  if (hooks_.install) {
    if (affinity_) affinity_->quiesce();
    hooks_.barrier->quiesce(hooks_.index, [this, &event] { hooks_.install(event); });
    if (affinity_) affinity_->resume();
  }
}

std::shared_ptr<const paxos::SnapshotData> ServiceManager::latest_snapshot() const {
  std::lock_guard<std::mutex> guard(snapshot_mu_);
  return latest_snapshot_;
}

void ServiceManager::set_latest_snapshot(std::shared_ptr<const paxos::SnapshotData> snapshot) {
  std::lock_guard<std::mutex> guard(snapshot_mu_);
  latest_snapshot_ = std::move(snapshot);
}

}  // namespace mcsmr::smr
