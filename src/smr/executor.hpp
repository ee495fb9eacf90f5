// Parallel execution for the ServiceManager (§V-D, extended per
// Alchieri et al. "Early Scheduling in Parallel SMR").
//
// The paper parallelizes every pipeline stage except execution; its
// "Replica" thread applies decided batches serially, which caps
// throughput as soon as the service does real work. AffinityExecutor
// (executor_impl=affinity) lifts that ceiling while preserving the SMR
// determinism contract: requests that share a key execute in decided
// order on one worker, and replies are byte-identical to the serial
// baseline (executor_impl=serial, which needs no executor at all).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/queue.hpp"
#include "common/wait_strategy.hpp"
#include "metrics/thread_stats.hpp"
#include "paxos/types.hpp"
#include "smr/client_io.hpp"
#include "smr/reply_cache.hpp"
#include "smr/service.hpp"
#include "smr/shared_state.hpp"

namespace mcsmr::smr {

/// Early-scheduled per-key worker affinity (executor_impl=affinity;
/// Alchieri et al. "Early Scheduling in Parallel SMR", P-SMR). There is
/// no per-batch barrier:
///
///   * Classification happens at batch-BUILD time on the leader (the
///     Batcher runs Service::classify once per request) and the resulting
///     footprints travel inside the classified batch encoding, so every
///     replica schedules from identical, pre-decided footprints.
///   * Every key with work in flight is owned by exactly one worker (a
///     live KEY CHAIN); the scheduler (the ServiceManager thread) enqueues
///     every single-owner request onto its owning worker's queue in
///     decided order and moves on immediately — non-conflicting work
///     flows continuously across batch boundaries. A key whose chain has
///     fully drained re-opens on the least-loaded worker (hash-slice
///     owner worker_of as the balanced-load tie-break), so a hot-key
///     chain repels unrelated keys instead of serializing its hash
///     slice's share behind the storm. Worker CHOICE is a scheduling
///     heuristic; per-key ORDER — the determinism contract — never is.
///   * Per-key decided order is preserved for free: same live key =>
///     same worker => same FIFO queue, and a chain only moves after all
///     its prior executions completed (release/acquire on the chain's
///     pending count). Keyless conflict-free requests stick to a worker
///     by client id (any fixed assignment is valid — they conflict with
///     nothing).
///   * A request whose keys span workers (or that is `global`, which
///     involves every worker) becomes a RENDEZVOUS: a marker is pushed to
///     each involved worker's queue at the request's decided position; the
///     lowest involved worker (home) waits for the others to arrive,
///     executes, and releases them. Only the involved workers pause —
///     the rest keep streaming. Queue FIFO makes the rendezvous
///     deadlock-free: markers of one rendezvous are pushed before
///     anything later, so two workers can never wait on each other's
///     unreached markers.
///   * Workers complete each request end-to-end: execute_at(), reply
///     cache update, executed_requests, send_reply. Replies flow as each
///     request finishes (the per-IO-thread reply queues take any number
///     of producers). Per-client reply order is preserved because
///     the scheduler dedups by client seq and clients are closed-loop.
///   * The executed-instance frontier (lease-read bound) is published by
///     frontier TOKENS: publish_frontier(i) pushes a token to every queue;
///     a worker processing its token has finished all its work of
///     instances <= i (FIFO), stores i+1 into its slot, and CAS-maxes the
///     minimum over all slots into SharedState::executed_frontier — so
///     the frontier only covers fully-executed prefixes.
///   * Snapshots/installs/cross-partition barriers happen at EXPLICIT
///     quiesce points: quiesce() parks every worker (all prior work
///     done), resume() releases them. That is the only remaining barrier,
///     and it runs at snapshot/global-request frequency, not per batch.
class AffinityExecutor {
 public:
  AffinityExecutor(const Config& config, Service& service, ReplyCache& reply_cache,
                   ClientIo& client_io, SharedState& shared);
  ~AffinityExecutor();

  AffinityExecutor(const AffinityExecutor&) = delete;
  AffinityExecutor& operator=(const AffinityExecutor&) = delete;

  void start();
  /// Drains every queue (all submitted work, rendezvous included, completes)
  /// and joins the workers. Caller contract: no submit()/quiesce() after
  /// stop() begins (the ServiceManager joins its thread first).
  void stop();

  /// Dispatch `requests` (already deduplicated, in decided order, all from
  /// `instance`) onto the workers and return WITHOUT waiting for
  /// execution. `classes[i]` is requests[i]'s footprint (from the batch
  /// encoding, or re-classified locally for v1 batches). Unstarted: runs
  /// everything inline (degenerate but correct). Single thread only (the
  /// ServiceManager thread).
  void submit(paxos::InstanceId instance, std::vector<paxos::Request> requests,
              std::vector<RequestClass> classes);

  /// Publish instance `instance` as consumed: once every worker has passed
  /// this point in its queue, SharedState::executed_frontier advances to
  /// `instance + 1`. Call once per decided instance, after its last
  /// submit().
  void publish_frontier(paxos::InstanceId instance);

  /// Park every worker at its current queue position and wait until all
  /// previously submitted work has fully executed. Pair with resume().
  /// Used for snapshots, manifest installs and cross-partition barriers.
  void quiesce();
  void resume();

  // --- scheduler statistics (benches / tests) ------------------------------
  /// Requests handed to a single owning worker.
  std::uint64_t dispatched() const { return dispatched_.load(std::memory_order_relaxed); }
  /// Multi-key/global requests executed via a worker rendezvous.
  std::uint64_t rendezvous_count() const {
    return rendezvous_.load(std::memory_order_relaxed);
  }
  /// Requests executed inline (unstarted fallback).
  std::uint64_t inline_execs() const {
    return inline_execs_.load(std::memory_order_relaxed);
  }
  std::size_t workers() const { return worker_count_; }

  /// The owning worker of a key hash. A DIFFERENT mix constant than
  /// partition_of_key: with the same mixer, every key of one partition
  /// would collapse onto one worker whenever workers == partitions.
  static std::uint32_t worker_of(std::uint64_t key_hash, std::uint32_t workers) {
    if (workers <= 1) return 0;
    const std::uint64_t mixed = key_hash * 0xC2B2AE3D27D4EB4Full;
    return static_cast<std::uint32_t>((mixed >> 32) % workers);
  }

 private:
  /// One live key chain: `worker` owns the key while `pending` (dispatched
  /// but not yet executed requests touching the key) is non-zero. The
  /// executing worker decrements with release; the scheduler frees or
  /// re-routes a chain only after an acquire load observes zero, so the
  /// new owner sees every effect of the old chain's executions.
  struct KeyChain {
    std::uint32_t worker = 0;
    std::atomic<std::uint32_t> pending{0};
  };
  /// One decided batch in flight. Owns the request payloads until every
  /// task referencing them retires (submit returns before execution, so
  /// the executor, not the caller, must keep them alive).
  struct BatchState {
    std::vector<paxos::Request> requests;
    paxos::InstanceId instance = 0;
    std::atomic<std::uint32_t> refs{0};
    /// Flat per-request chain references: request i holds
    /// chain_ptrs[chain_span[i].first .. +chain_span[i].second). The
    /// executing worker (or rendezvous home) decrements each pending
    /// count after the request executes, releasing the keys to re-route.
    std::vector<KeyChain*> chain_ptrs;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> chain_span;
  };
  /// One multi-key/global request: `expected` involved workers arrive at
  /// their markers; `home` (the lowest) executes and publishes `done`.
  struct Rendezvous {
    BatchState* batch = nullptr;
    std::uint32_t index = 0;
    std::uint32_t home = 0;
    std::uint32_t expected = 0;
    std::atomic<std::uint32_t> arrived{0};
    std::atomic<bool> done{false};
    std::atomic<std::uint32_t> refs{0};
  };
  struct Task {
    enum class Kind : std::uint8_t { kExec, kRendezvous, kQuiesce, kToken };
    Kind kind = Kind::kExec;
    std::uint32_t index = 0;              ///< kExec: request index in batch
    BatchState* batch = nullptr;          ///< kExec
    Rendezvous* rendezvous = nullptr;     ///< kRendezvous
    std::uint64_t next_instance = 0;      ///< kToken: frontier value
  };

  void worker_loop(std::uint32_t index);
  void execute_and_reply(const paxos::Request& request, paxos::InstanceId instance);
  void unref_batch(BatchState* batch);
  void push_task(std::uint32_t worker, const Task& task);
  void advance_frontier(std::uint32_t worker, std::uint64_t next_instance);
  /// The live chain for `key`, opening one on the least-loaded worker
  /// (slice owner as tie-break) if none is in flight. Scheduler thread
  /// only; the caller must bump the chain's pending count per dispatch.
  KeyChain* route_key(std::uint64_t key);
  /// Decrement every chain pending count request `index` holds (release:
  /// pairs with route_key's acquire on re-route).
  void retire_chains(BatchState* batch, std::uint32_t index);

  // Owned copy, not a reference: a stored Config& tied this object's
  // lifetime to the constructor argument (the PR-6 dangling-Config bug
  // class); lint_invariants.py forbids storing the parameter by ref.
  const Config config_;
  Service& service_;
  ReplyCache& reply_cache_;
  ClientIo& client_io_;
  SharedState& shared_;
  const std::uint32_t worker_count_;

  /// One queue per worker; (re)built by start() — close() is
  /// permanent per queue, so a restart needs fresh queues.
  std::vector<std::unique_ptr<BoundedBlockingQueue<Task>>> queues_;
  std::vector<metrics::NamedThread> threads_;
  bool started_ = false;

  /// Per-worker consumed-frontier slots (worker w has fully executed all
  /// of its work for instances < frontier_[w]); the executed frontier is
  /// the minimum over all slots. Rebuilt by start().
  std::unique_ptr<std::atomic<std::uint64_t>[]> frontier_;

  /// One shared wait hub for the rare blocking edges (rendezvous arrival/
  /// completion, quiesce). Spin-then-park; spurious notifies are benign.
  WaitStrategy sync_;
  /// Cumulative arrivals at quiesce markers; quiesce() waits for all
  /// workers, resume() bumps quiesce_seq_ to release them.
  std::atomic<std::uint64_t> quiesce_arrived_{0};
  std::atomic<std::uint64_t> quiesce_seq_{0};

  std::atomic<std::uint64_t> dispatched_{0};
  std::atomic<std::uint64_t> rendezvous_{0};
  std::atomic<std::uint64_t> inline_execs_{0};

  /// Live key chains (scheduler thread only; the values' pending counts
  /// are shared with workers). Drained entries are erased lazily on
  /// re-lookup and by a periodic sweep in submit().
  std::unordered_map<std::uint64_t, std::unique_ptr<KeyChain>> routes_;
  /// Per-worker dispatched-but-not-executed request counts — the
  /// least-loaded routing heuristic's input. Relaxed everywhere: load
  /// feeds scheduling choices only, never correctness.
  std::unique_ptr<std::atomic<std::uint64_t>[]> outstanding_;

  // Scratch for submit() (scheduler thread only).
  std::vector<std::uint32_t> involved_;
  std::vector<std::uint32_t> involved_flat_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> involved_spans_;
};

}  // namespace mcsmr::smr
