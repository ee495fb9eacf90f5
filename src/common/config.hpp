// Cluster and replica configuration.
//
// Field defaults follow the paper's experimental setup (§VI): n=3 replicas,
// pipelining window WND=10, batch size BSZ=1300 bytes, RequestQueue cap
// 1000, ProposalQueue cap 20, 128-byte requests with 8-byte replies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mcsmr {

using ReplicaId = std::uint32_t;

/// Execution strategy of the ServiceManager (§V-D):
///   kSerial   — the paper's design: the Replica thread applies decided
///               batches one request at a time (baseline, default);
///   kAffinity — early-scheduled per-key worker affinity (Alchieri-style;
///               see smr/executor.hpp):
///               classification happens at batch-build time and travels
///               inside the batch encoding; each worker owns a hash slice
///               of the key space and executes its slice in decided order
///               with no per-batch barrier — multi-key/global requests
///               rendezvous only the involved workers.
enum class ExecutorImpl { kSerial, kAffinity };

const char* to_string(ExecutorImpl impl);

/// Durable-log backend behind the Paxos engine (see paxos/storage.hpp):
///   kMemory  — no persistence: a crash loses all acceptor state (the
///              pre-durability behavior; default);
///   kSegment — append-only CRC-framed segment files with group-commit
///              batched fsync; acceptor promises/accepts and decided
///              values are durable before the corresponding acks leave
///              the replica, and a restarted replica recovers from disk.
enum class StorageImpl { kMemory, kSegment };

const char* to_string(StorageImpl impl);

/// How `read_only` requests (per Service::classify) reach the service:
///   kConsensus — every request rides full consensus (the paper's
///                pipeline, byte-identical baseline; default);
///   kLease     — the leader acquires a time-bounded lease through the
///                heartbeat traffic and serves linearizable reads locally
///                without allocating a Paxos instance (see smr/request_gate
///                and the "Read path" section of docs/ARCHITECTURE.md).
enum class ReadPath { kConsensus, kLease };

const char* to_string(ReadPath path);

struct Config {
  // --- Cluster ---
  int n = 3;  ///< number of replicas; tolerates f = (n-1)/2 crashes

  // --- Ordering protocol (Paxos with batching + pipelining, [12]) ---
  std::uint32_t window_size = 10;       ///< WND: max concurrent ballots
  std::uint32_t batch_max_bytes = 1300; ///< BSZ: max batch payload bytes
  std::uint64_t batch_timeout_ns = 5'000'000;  ///< close a partial batch after 5 ms

  // --- Threading architecture (Fig 3) ---
  int client_io_threads = 3;  ///< paper: optimal usually 3..6 (§V-A fn.2)

  // --- Partitioned pipelines (compartmentalization, Whittaker et al.) ---
  /// Number of independent SMR pipelines (Batcher -> Protocol -> Service
  /// Manager chains, each with its own Paxos instance space) the replica
  /// runs side by side. 1 = the paper's single-pipeline replica (default;
  /// behavior-identical to the pre-partitioning code). Requests are routed
  /// by Service::classify() key hash; multi-partition/global requests run
  /// through the cross-partition barrier (see smr/partition.hpp).
  std::uint32_t num_partitions = 1;

  // --- Queue bounds (flow control by backpressure, §V-E) ---
  std::size_t request_queue_cap = 1000;  ///< paper Table I: max 1000
  std::size_t proposal_queue_cap = 20;   ///< paper Table I: max 20

  // --- Failure detection (§V-C3) ---
  std::uint64_t fd_heartbeat_interval_ns = 50'000'000;   ///< leader heartbeat: 50 ms
  std::uint64_t fd_suspect_timeout_ns = 400'000'000;     ///< suspect leader after 400 ms

  // --- Retransmission (§V-C4) ---
  std::uint64_t retransmit_timeout_ns = 250'000'000;  ///< resend undecided after 250 ms

  // --- Read path (leader leases; docs/ARCHITECTURE.md "Read path") ---
  ReadPath read_path = ReadPath::kConsensus;
  /// How long one heartbeat's lease grant lasts on the granting follower's
  /// clock. Every heartbeat renews it, so the leader's lease slides forward
  /// while a quorum keeps echoing grants. Must exceed fd_suspect_timeout_ns
  /// or the lease expires between suspicion checks for no benefit.
  std::uint64_t lease_duration_ns = 500'000'000;
  /// Safety margin subtracted from every grant on the leader side, covering
  /// clock RATE drift over one lease window (constant offsets cancel out of
  /// the duration-based arithmetic entirely).
  std::uint64_t lease_drift_margin_ns = 20'000'000;

  // --- Clock-fault injection (tests only; both default to a true clock) ---
  /// Constant offset added to this node's protocol clock.
  std::int64_t clock_offset_ns = 0;
  /// Rate skew in parts-per-million: +100'000 runs 10% fast.
  std::int64_t clock_rate_ppm = 0;

  // --- Catch-up (§III-C) ---
  std::uint64_t catchup_interval_ns = 200'000'000;  ///< gap scan period

  // --- ServiceManager (§V-D) ---
  std::size_t reply_cache_stripes = 64;  ///< lock stripes in the reply cache
  std::uint64_t admitted_ttl_ns = 2'000'000'000;  ///< in-flight dedup window
  /// Take a service snapshot every N decided instances (0 = disabled).
  std::uint64_t snapshot_interval_instances = 0;
  /// Execution strategy (serial = paper baseline; see ExecutorImpl).
  ExecutorImpl executor_impl = ExecutorImpl::kSerial;
  /// Worker threads of the affinity executor (ignored when serial).
  std::size_t executor_workers = 2;

  // --- Durable log (paxos/storage.hpp; ROADMAP open item 1) ---
  StorageImpl log_storage = StorageImpl::kMemory;
  /// Root directory for segment files; each (replica, partition) pair
  /// writes under `<log_dir>/r<replica>/p<partition>`.
  std::string log_dir = "mcsmr-logs";
  /// Group-commit window of the segment flush thread: batch appends and
  /// fsync at most once per window (0 = fsync every write burst).
  std::uint64_t fsync_batch_ns = 1'000'000;

  // --- Workload shape (used by clients/benches; paper §VI) ---
  std::size_t request_payload_bytes = 128;
  /// NullService's reply size (its default) and what bench clients expect
  /// back from it. Not an override key: no service reads it per replica.
  std::size_t reply_payload_bytes = 8;

  /// Prepended to every module thread's registered name (benches co-host
  /// several replicas in one process and set "r<id>/" to tell their
  /// threads apart in the per-thread figures).
  std::string thread_name_prefix;

  /// Majority quorum size.
  int quorum() const { return n / 2 + 1; }

  /// Initial leader (view 0). Views map to leaders round-robin.
  ReplicaId leader_of_view(std::uint64_t view) const {
    return static_cast<ReplicaId>(view % static_cast<std::uint64_t>(n));
  }

  /// This node's protocol clock: monotonic time warped by the fault
  /// injection knobs above. All lease arithmetic (grants, expiry checks,
  /// heartbeat stamps) must read time through here so injected skew is
  /// seen coherently by every module of the replica.
  std::uint64_t local_clock_ns() const;

  /// Apply `key=value` overrides: the one place that knows configuration
  /// keys and their legal values (bench `--set`, the test matrix's
  /// MCSMR_CONFIG and bench/e2e workloads all come through here).
  /// Accepted keys: n, window_size, batch_max_bytes, batch_timeout_ms,
  /// client_io_threads, request_queue_cap, proposal_queue_cap,
  /// request_payload_bytes, executor_impl (serial|affinity),
  /// executor_workers, num_partitions, log_storage (memory|segment),
  /// log_dir, fsync_batch_ns, read_path (consensus|lease),
  /// lease_duration_ms, lease_drift_margin_ms. Numbers are plain decimal
  /// digits that must fit the field. Throws std::invalid_argument on an
  /// unknown key or a malformed/illegal value, std::out_of_range on a
  /// number too large.
  void apply_overrides(const std::map<std::string, std::string>& overrides);

  /// Split argv-style "key=value" tokens into an override map (a repeated
  /// key keeps its last value). Throws std::invalid_argument on a token
  /// without '='. Checks no key: apply_overrides does.
  static std::map<std::string, std::string> parse_pairs(const std::vector<std::string>& tokens);

  /// A default Config with `parse_pairs(args)` applied.
  static Config from_args(const std::vector<std::string>& args);
};

}  // namespace mcsmr
