#include "smr/executor.hpp"

#include <algorithm>
#include <string>

namespace mcsmr::smr {

namespace {
/// Per-worker hand-off queue capacity. Batches larger than this still work:
/// the scheduler's push blocks until the worker drains (no cycle back to
/// the scheduler, so the wait is deadlock-free).
constexpr std::size_t kWorkerQueueCap = 1024;
}  // namespace

AffinityExecutor::AffinityExecutor(const Config& config, Service& service,
                                   ReplyCache& reply_cache, ClientIo& client_io,
                                   SharedState& shared)
    : config_(config), service_(service), reply_cache_(reply_cache), client_io_(client_io),
      shared_(shared),
      worker_count_(config.executor_workers == 0
                        ? 1
                        : static_cast<std::uint32_t>(config.executor_workers)) {}

AffinityExecutor::~AffinityExecutor() { stop(); }

void AffinityExecutor::start() {
  if (started_) return;
  started_ = true;
  // Fresh queues and frontier slots every start: a queue's close() is
  // permanent, so a stop()/start() cycle must not hand re-spawned workers
  // closed queues.
  queues_.clear();
  routes_.clear();
  frontier_ = std::make_unique<std::atomic<std::uint64_t>[]>(worker_count_);
  outstanding_ = std::make_unique<std::atomic<std::uint64_t>[]>(worker_count_);
  for (std::uint32_t i = 0; i < worker_count_; ++i) {
    frontier_[i].store(0, std::memory_order_relaxed);
    outstanding_[i].store(0, std::memory_order_relaxed);
    queues_.push_back(std::make_unique<BoundedBlockingQueue<Task>>(
        kWorkerQueueCap, "AffinityQueue-" + std::to_string(i)));
  }
  for (std::uint32_t i = 0; i < worker_count_; ++i) {
    threads_.emplace_back(config_.thread_name_prefix + "AffWorker-" + std::to_string(i),
                          [this, i] { worker_loop(i); });
  }
}

void AffinityExecutor::stop() {
  if (!started_) return;
  // close() lets each worker drain what is already in its queue before the
  // pop returns nullopt — every pushed rendezvous marker gets processed,
  // so no worker can be left parked at one.
  for (auto& queue : queues_) queue->close();
  threads_.clear();  // joins
  started_ = false;
}

void AffinityExecutor::execute_and_reply(const paxos::Request& request,
                                         paxos::InstanceId instance) {
  // The worker completes the request end-to-end — this is what removes
  // the per-batch reply hand-off from the scheduler thread. Per-client
  // ordering is safe: the scheduler dedups by seq before dispatch and
  // clients are closed-loop, so one client never has two requests in
  // flight past the dedup point.
  Bytes reply = service_.execute_at(request.payload, instance);
  reply_cache_.update(request.client_id, request.seq, reply);
  shared_.executed_requests.fetch_add(1, std::memory_order_relaxed);
  client_io_.send_reply(request.client_id, request.seq, ReplyStatus::kOk, reply);
}

void AffinityExecutor::unref_batch(BatchState* batch) {
  // acq_rel: the last unref must observe every worker's writes into the
  // batch before freeing it.
  if (batch->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete batch;
}

AffinityExecutor::KeyChain* AffinityExecutor::route_key(std::uint64_t key) {
  auto it = routes_.find(key);
  if (it != routes_.end()) {
    // acquire pairs with retire_chains' release decrement: if the chain
    // drained, the key may move workers, and the new owner is guaranteed
    // to see every effect of the old chain's executions.
    if (it->second->pending.load(std::memory_order_acquire) > 0) return it->second.get();
    routes_.erase(it);
  }
  // Open a new chain on the least-loaded worker, with the hash-slice
  // owner as the balanced-load tie-break (strict improvement required):
  // an even load keeps the deterministic hash spread, while a hot-key
  // chain repels unrelated new keys instead of serializing its slice's
  // share behind the storm.
  std::uint32_t best = worker_of(key, worker_count_);
  std::uint64_t best_load = outstanding_[best].load(std::memory_order_relaxed);
  for (std::uint32_t w = 0; w < worker_count_; ++w) {
    const std::uint64_t load = outstanding_[w].load(std::memory_order_relaxed);
    if (load < best_load) {
      best = w;
      best_load = load;
    }
  }
  auto chain = std::make_unique<KeyChain>();
  chain->worker = best;
  KeyChain* raw = chain.get();
  routes_.emplace(key, std::move(chain));
  return raw;
}

void AffinityExecutor::retire_chains(BatchState* batch, std::uint32_t index) {
  const auto [begin, count] = batch->chain_span[index];
  for (std::uint32_t j = 0; j < count; ++j) {
    batch->chain_ptrs[begin + j]->pending.fetch_sub(1, std::memory_order_release);
  }
}

void AffinityExecutor::push_task(std::uint32_t worker, const Task& task) {
  if (queues_[worker]->push(task)) return;
  // push fails only on a closed queue, which the submit contract rules out
  // (the ServiceManager thread is joined before stop()); handle the
  // degenerate case inline, in decided order.
  switch (task.kind) {
    case Task::Kind::kExec:
      execute_and_reply(task.batch->requests[task.index], task.batch->instance);
      retire_chains(task.batch, task.index);
      outstanding_[worker].fetch_sub(1, std::memory_order_relaxed);
      unref_batch(task.batch);
      break;
    case Task::Kind::kRendezvous: {
      Rendezvous* rendezvous = task.rendezvous;
      BatchState* batch = rendezvous->batch;
      // Simulate this worker's participation: arrive, and let the home
      // role collapse onto whichever context reaches expected last. With
      // every queue closed no worker thread is running, so the calls all
      // happen here, serially — the request executes exactly once.
      if (rendezvous->arrived.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          rendezvous->expected) {
        execute_and_reply(batch->requests[rendezvous->index], batch->instance);
        retire_chains(batch, rendezvous->index);
        outstanding_[rendezvous->home].fetch_sub(1, std::memory_order_relaxed);
        rendezvous->done.store(true, std::memory_order_release);
      }
      if (rendezvous->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete rendezvous;
      unref_batch(batch);
      break;
    }
    case Task::Kind::kQuiesce:
      quiesce_arrived_.fetch_add(1, std::memory_order_acq_rel);
      sync_.notify();
      break;
    case Task::Kind::kToken:
      advance_frontier(worker, task.next_instance);
      break;
  }
}

void AffinityExecutor::submit(paxos::InstanceId instance, std::vector<paxos::Request> requests,
                              std::vector<RequestClass> classes) {
  const std::size_t n = requests.size();
  if (n == 0) return;
  if (!started_) {
    // Unstarted fallback: serial, in decided order, on the caller.
    for (const auto& request : requests) execute_and_reply(request, instance);
    inline_execs_.fetch_add(n, std::memory_order_relaxed);
    return;
  }

  // Drained chains are erased lazily on re-lookup; keys that never come
  // back (unique keys are the common case) would accrete, so bound the
  // routing map with a periodic sweep. 4096 live-or-drained chains is far
  // above any in-flight working set; the sweep is amortized O(1)/request.
  constexpr std::size_t kRouteSweepSize = 4096;
  if (routes_.size() >= kRouteSweepSize) {
    std::erase_if(routes_, [](const auto& entry) {
      return entry.second->pending.load(std::memory_order_acquire) == 0;
    });
  }

  auto* batch = new BatchState;
  batch->requests = std::move(requests);
  batch->instance = instance;
  batch->chain_span.resize(n, {0, 0});

  // Pass 1: route every request ONCE (routing opens chains and bumps load
  // counters, so it must not repeat), record the involved-worker lists,
  // and count references BEFORE the first push — a worker may retire its
  // task while later tasks of the same batch are still being pushed.
  involved_flat_.clear();
  involved_spans_.clear();
  std::uint32_t refs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    involved_.clear();
    const RequestClass& cls = classes[i];
    if (cls.global) {
      // Global requests involve every worker — the rendezvous degenerates
      // to a quiesce at exactly this decided position.
      for (std::uint32_t w = 0; w < worker_count_; ++w) involved_.push_back(w);
    } else if (cls.keys.empty()) {
      // Keyless conflict-free: sticky per client. Any fixed assignment is
      // valid (no conflicts to order); per-client stickiness keeps one
      // client's requests in submission order.
      involved_.push_back(worker_of(batch->requests[i].client_id, worker_count_));
    } else {
      const auto chain_begin = static_cast<std::uint32_t>(batch->chain_ptrs.size());
      for (const std::uint64_t key : cls.keys) {
        KeyChain* chain = route_key(key);
        chain->pending.fetch_add(1, std::memory_order_relaxed);
        batch->chain_ptrs.push_back(chain);
        involved_.push_back(chain->worker);
      }
      batch->chain_span[i] = {chain_begin, static_cast<std::uint32_t>(cls.keys.size())};
      std::sort(involved_.begin(), involved_.end());
      involved_.erase(std::unique(involved_.begin(), involved_.end()), involved_.end());
    }
    // The executing worker — involved_[0] for the single-owner case, the
    // home (lowest involved) for a rendezvous — carries the load.
    outstanding_[involved_[0]].fetch_add(1, std::memory_order_relaxed);
    involved_spans_.emplace_back(static_cast<std::uint32_t>(involved_flat_.size()),
                                 static_cast<std::uint32_t>(involved_.size()));
    involved_flat_.insert(involved_flat_.end(), involved_.begin(), involved_.end());
    refs += static_cast<std::uint32_t>(involved_.size());
  }
  batch->refs.store(refs, std::memory_order_relaxed);

  // Pass 2: dispatch in decided order. Per-worker FIFO queues turn this
  // order into per-key execution order; rendezvous markers occupy the
  // request's decided position in EVERY involved queue, which both orders
  // the multi-key request against each queue's stream and makes the
  // rendezvous deadlock-free (no marker can be behind a later one).
  for (std::size_t i = 0; i < n; ++i) {
    const auto [flat_begin, flat_count] = involved_spans_[i];
    involved_.assign(involved_flat_.begin() + flat_begin,
                     involved_flat_.begin() + flat_begin + flat_count);
    if (involved_.size() == 1) {
      Task task;
      task.kind = Task::Kind::kExec;
      task.index = static_cast<std::uint32_t>(i);
      task.batch = batch;
      push_task(involved_[0], task);
      dispatched_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    auto* rendezvous = new Rendezvous;
    rendezvous->batch = batch;
    rendezvous->index = static_cast<std::uint32_t>(i);
    rendezvous->home = involved_[0];  // lowest involved worker executes
    rendezvous->expected = static_cast<std::uint32_t>(involved_.size());
    rendezvous->refs.store(rendezvous->expected, std::memory_order_relaxed);
    rendezvous_.fetch_add(1, std::memory_order_relaxed);
    Task task;
    task.kind = Task::Kind::kRendezvous;
    task.rendezvous = rendezvous;
    for (const std::uint32_t worker : involved_) push_task(worker, task);
  }
}

void AffinityExecutor::advance_frontier(std::uint32_t worker, std::uint64_t next_instance) {
  // Own slot first (release: everything this worker executed for earlier
  // instances happens-before the slot store), then CAS-max the minimum
  // over all slots into the shared frontier. The acquire loads pair with
  // the other workers' release stores, so a reader who acquires the
  // frontier transitively sees every write of every covered instance —
  // exactly what the lease read path needs.
  frontier_[worker].store(next_instance, std::memory_order_release);
  std::uint64_t minimum = frontier_[0].load(std::memory_order_acquire);
  for (std::uint32_t w = 1; w < worker_count_; ++w) {
    minimum = std::min(minimum, frontier_[w].load(std::memory_order_acquire));
  }
  // CAS-max: tokens from different workers race, and a manifest install
  // may have fast-forwarded the frontier past every slot — never regress.
  std::uint64_t current = shared_.executed_frontier.load(std::memory_order_relaxed);
  while (current < minimum &&
         !shared_.executed_frontier.compare_exchange_weak(
             current, minimum, std::memory_order_release, std::memory_order_relaxed)) {
  }
}

void AffinityExecutor::publish_frontier(paxos::InstanceId instance) {
  const std::uint64_t next = instance + 1;
  if (!started_) {
    // No workers: the inline path already executed everything.
    std::uint64_t current = shared_.executed_frontier.load(std::memory_order_relaxed);
    while (current < next &&
           !shared_.executed_frontier.compare_exchange_weak(
               current, next, std::memory_order_release, std::memory_order_relaxed)) {
    }
    return;
  }
  // A token to EVERY worker (not just the involved ones): each slot must
  // keep advancing or the minimum — and with it the lease-read bound —
  // would stall on idle workers.
  Task token;
  token.kind = Task::Kind::kToken;
  token.next_instance = next;
  for (std::uint32_t w = 0; w < worker_count_; ++w) push_task(w, token);
}

void AffinityExecutor::quiesce() {
  if (!started_) return;
  // Cumulative arrival target: each worker bumps quiesce_arrived_ exactly
  // once per marker, after finishing everything ahead of it in its queue.
  const std::uint64_t target = quiesce_arrived_.load(std::memory_order_relaxed) + worker_count_;
  Task marker;
  marker.kind = Task::Kind::kQuiesce;
  for (std::uint32_t w = 0; w < worker_count_; ++w) push_task(w, marker);
  sync_.await([&] { return quiesce_arrived_.load(std::memory_order_acquire) >= target; });
  // Every submitted request has executed, so every chain has drained —
  // reset the routing map while the workers are parked (snapshots and
  // installs are natural re-balancing points).
  routes_.clear();
}

void AffinityExecutor::resume() {
  if (!started_) return;
  quiesce_seq_.fetch_add(1, std::memory_order_release);
  sync_.notify();
}

void AffinityExecutor::worker_loop(std::uint32_t index) {
  BoundedBlockingQueue<Task>& queue = *queues_[index];
  while (auto task = queue.pop()) {
    switch (task->kind) {
      case Task::Kind::kExec: {
        execute_and_reply(task->batch->requests[task->index], task->batch->instance);
        retire_chains(task->batch, task->index);
        outstanding_[index].fetch_sub(1, std::memory_order_relaxed);
        unref_batch(task->batch);
        break;
      }
      case Task::Kind::kRendezvous: {
        Rendezvous* rendezvous = task->rendezvous;
        BatchState* batch = rendezvous->batch;
        // Arrive (acq_rel: prior work in this queue happens-before the
        // home's execution) and wake whoever waits on the count.
        rendezvous->arrived.fetch_add(1, std::memory_order_acq_rel);
        sync_.notify();
        if (index == rendezvous->home) {
          sync_.await([&] {
            return rendezvous->arrived.load(std::memory_order_acquire) == rendezvous->expected;
          });
          execute_and_reply(batch->requests[rendezvous->index], batch->instance);
          retire_chains(batch, rendezvous->index);
          outstanding_[index].fetch_sub(1, std::memory_order_relaxed);
          rendezvous->done.store(true, std::memory_order_release);
          sync_.notify();
        } else {
          // Only the involved workers pause; the others keep streaming.
          sync_.await([&] { return rendezvous->done.load(std::memory_order_acquire); });
        }
        if (rendezvous->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete rendezvous;
        unref_batch(batch);
        break;
      }
      case Task::Kind::kQuiesce: {
        // Load the epoch BEFORE announcing arrival: once the last worker
        // arrives, quiesce() may return and resume() may bump the epoch —
        // an epoch read after that would miss its own release.
        const std::uint64_t seq = quiesce_seq_.load(std::memory_order_acquire);
        quiesce_arrived_.fetch_add(1, std::memory_order_acq_rel);
        sync_.notify();
        sync_.await([&] { return quiesce_seq_.load(std::memory_order_acquire) > seq; });
        break;
      }
      case Task::Kind::kToken:
        advance_frontier(index, task->next_instance);
        break;
    }
  }
}

}  // namespace mcsmr::smr
