// The deterministic service replicated by the state machine (§III-A).
//
// With the serial executor (the paper's design), execute() is called by
// exactly one thread (the ServiceManager / "Replica" thread) in
// decided-instance order on every replica. With the affinity executor
// (executor_impl=affinity) non-conflicting requests — as declared by
// classify() — may execute concurrently on worker threads, so execute()
// must be internally thread-safe; the scheduler guarantees that requests
// whose classifications conflict never overlap and always run in decided
// order, which keeps the externally observable state machine
// deterministic. It also executes different instances concurrently, so it
// calls execute_at() (instance as an argument) instead of
// note_instance()+execute(). snapshot()/install()
// support state transfer to lagging replicas and are only invoked at
// quiesce points (no execute() in flight), but tests and benches probe
// them cross-thread, hence the internal guards.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/config.hpp"
#include "paxos/types.hpp"

namespace mcsmr::smr {

/// Conflict classification of one request. Defined in paxos/types.hpp
/// (the footprint travels inside the classified batch encoding); aliased
/// here because services author it via Service::classify().
using RequestClass = paxos::RequestClass;

/// The one key-placement function of the partitioned replica: which shard
/// owns the state behind `key_hash` when the service is split over
/// `partitions` pipelines. Used by the PartitionRouter (request routing)
/// and by ShardView (cross-partition execution); both MUST agree, which is
/// why it lives here. The multiply mixes first — std::hash is commonly the
/// identity on integers, and a plain modulo would correlate with key
/// generation patterns.
inline std::uint32_t partition_of_key(std::uint64_t key_hash, std::uint32_t partitions) {
  if (partitions <= 1) return 0;
  const std::uint64_t mixed = key_hash * 0x9E3779B97F4A7C15ull;
  return static_cast<std::uint32_t>((mixed >> 32) % partitions);
}

class Service;

/// All shards of a partitioned service, handed to execute_global() at a
/// cross-partition rendezvous. Every shard is quiesced at a request
/// boundary, so the executing thread may read and mutate any of them.
class ShardView {
 public:
  explicit ShardView(const std::vector<Service*>& shards) : shards_(shards) {}

  std::uint32_t size() const { return static_cast<std::uint32_t>(shards_.size()); }
  Service& shard(std::uint32_t index) const { return *shards_[index]; }
  std::uint32_t shard_for(std::uint64_t key_hash) const {
    return partition_of_key(key_hash, size());
  }

 private:
  const std::vector<Service*>& shards_;
};

class Service {
 public:
  virtual ~Service() = default;

  /// Apply one request; the returned bytes are sent to the client.
  virtual Bytes execute(const Bytes& request) = 0;

  /// Apply one request, naming the consensus instance that decided it.
  /// The affinity executor calls THIS entry point: its workers execute
  /// different instances concurrently, so a shared note_instance() stamp
  /// would race. Services that use note_instance() state inside execute()
  /// must override execute_at() to take the instance from the argument
  /// instead (KvService does); the default simply ignores it, which is
  /// correct for instance-oblivious services.
  virtual Bytes execute_at(const Bytes& request, std::uint64_t /*instance*/) {
    return execute(request);
  }

  /// Announce the decided instance whose batch is about to execute (called
  /// by the ServiceManager before dispatching the batch). Versioned
  /// services stamp written keys with it — per-key last-write instance
  /// numbers are what makes the lease read path's freshness bound cheap.
  /// Deterministic: the decided sequence is identical on every replica.
  /// Default: ignored.
  virtual void note_instance(std::uint64_t /*instance*/) {}

  /// Classify a request for the affinity executor and the partition
  /// router. Must be a pure function of the request bytes (it runs on the
  /// Batcher, possibly concurrently with execute() on workers). The
  /// default declares every request global, which degrades the affinity
  /// executor to serial order — always safe for services that do not
  /// opt in.
  virtual RequestClass classify(const Bytes& /*request*/) const { return RequestClass{}; }

  /// Apply one request whose keys span shards (or that classify() calls
  /// global). Called at a cross-partition rendezvous with every shard
  /// quiesced; `this` is shard 0's instance. The default gives single-
  /// shard semantics: execute on the shard the request's first key routes
  /// to (shard 0 for keyless/global classifications) — correct for any
  /// service without cross-shard state. Services with shared state across
  /// shards (LockService's fencing counter) override it.
  virtual Bytes execute_global(const Bytes& request, const ShardView& shards);

  /// Serialize the full service state.
  virtual Bytes snapshot() const = 0;

  /// Replace the state with a serialized snapshot.
  virtual void install(const Bytes& state) = 0;
};

/// The paper's benchmark service (§VI): discards the request payload and
/// answers with a fixed-size byte array — isolating the ordering path.
class NullService : public Service {
 public:
  explicit NullService(std::size_t reply_bytes = Config{}.reply_payload_bytes)
      : reply_(reply_bytes, 0) {}
  Bytes execute(const Bytes& /*request*/) override {
    // Atomic: conflict-free requests execute concurrently under the
    // affinity executor, and tests/benches probe executed() cross-thread.
    executed_.fetch_add(1, std::memory_order_relaxed);
    return reply_;
  }
  RequestClass classify(const Bytes& /*request*/) const override {
    return RequestClass::conflict_free();
  }
  Bytes snapshot() const override;
  void install(const Bytes& state) override;
  std::uint64_t executed() const { return executed_.load(std::memory_order_relaxed); }

 private:
  Bytes reply_;
  std::atomic<std::uint64_t> executed_{0};
};

/// A coordination-service-style key-value store.
///
/// Request encoding: u8 op | str key [| bytes value]
///   op 1 PUT   -> old value ("" if none)
///   op 2 GET   -> value ("" if none)
///   op 3 DEL   -> old value
///   op 4 CAS   -> u8 success; expected+new values follow the key
/// Reply encoding: u8 status(0 ok, 1 bad request) | bytes result
class KvService : public Service {
 public:
  enum class Op : std::uint8_t { kPut = 1, kGet = 2, kDel = 3, kCas = 4 };

  Bytes execute(const Bytes& request) override;
  /// The affinity-executor entry point: workers of different instances run
  /// concurrently, so the version to stamp must come from the argument,
  /// not the shared note_instance() cell. execute() delegates here with
  /// the noted instance — the serial path is byte-identical either way.
  Bytes execute_at(const Bytes& request, std::uint64_t instance) override;
  /// Versioned store: every written key records the Paxos instance that
  /// last wrote it. The version is decided-sequence state (identical on
  /// every replica), so it travels in snapshots.
  void note_instance(std::uint64_t instance) override {
    current_instance_.store(instance, std::memory_order_relaxed);
  }
  /// GET is a read on its key; PUT/DEL/CAS are writes; malformed requests
  /// are global (they cannot name the state they touch).
  RequestClass classify(const Bytes& request) const override;
  Bytes snapshot() const override;
  void install(const Bytes& state) override;

  std::size_t size() const;

  /// A value together with the instance that last wrote its key. Served
  /// by the lease read path and probed by staleness tests.
  struct VersionedValue {
    Bytes value;
    std::uint64_t version = 0;
  };
  std::optional<VersionedValue> versioned_get(const std::string& key) const;

  // Client-side encoders.
  static Bytes make_put(const std::string& key, const Bytes& value);
  static Bytes make_get(const std::string& key);
  static Bytes make_del(const std::string& key);
  static Bytes make_cas(const std::string& key, const Bytes& expected, const Bytes& desired);
  /// Decode a reply: returns nullopt for status!=0, else the result bytes.
  static std::optional<Bytes> parse_reply(const Bytes& reply);

 private:
  struct Entry {
    Bytes value;
    std::uint64_t version = 0;  ///< instance of the last write to this key
  };
  // The store is lock-striped by key hash: under the affinity executor
  // each worker owns a hash slice of the key space, so worker-path stripe
  // acquisitions are effectively uncontended — the mutexes remain because
  // lease reads (versioned_get) and test/bench probes (size, snapshot)
  // still read cross-thread while workers write (TSan job covers it).
  // A request's keys never span stripes (one key per KV op), so per-stripe
  // locking cannot deadlock and never weakens the scheduler's ordering.
  struct Stripe {
    mutable std::mutex mu;
    std::map<std::string, Entry> map;
  };
  static constexpr std::size_t kStripes = 16;
  const Stripe& stripe_for(const std::string& key) const;
  Stripe& stripe_for(const std::string& key) {
    return const_cast<Stripe&>(std::as_const(*this).stripe_for(key));
  }
  std::array<Stripe, kStripes> stripes_;
  // Written by the ServiceManager before each batch, read inside execute()
  // (possibly on an executor worker). Relaxed is enough: the scheduler's
  // queue hand-off orders the store before any execute() of that batch.
  std::atomic<std::uint64_t> current_instance_{0};
};

/// A Chubby-style lock service with lease-free explicit locks and fencing
/// tokens (the "lock server" workload the paper's introduction motivates).
///
/// Request encoding: u8 op | str lock_name | u64 owner_token
///   op 1 ACQUIRE -> u8 granted | u64 fencing_token (0 when denied)
///   op 2 RELEASE -> u8 released (1 only if owner_token held it)
///   op 3 CHECK   -> u8 held | u64 owner_token | u64 fencing_token
/// Owners are identified by an opaque u64 (typically the client id).
class LockService : public Service {
 public:
  enum class Op : std::uint8_t { kAcquire = 1, kRelease = 2, kCheck = 3 };

  Bytes execute(const Bytes& request) override;
  /// CHECK is a read on the lock name; RELEASE writes it. ACQUIRE writes
  /// the name AND a shared fencing-counter key: two ACQUIREs — even on
  /// different locks — must run in decided order or replicas would hand
  /// out diverging fencing tokens. Malformed requests are global.
  RequestClass classify(const Bytes& request) const override;
  /// Partitioned ACQUIRE whose lock name lives on a different shard than
  /// the fencing counter: the grant decision comes from the name shard,
  /// the token from the counter shard — both quiesced at the rendezvous.
  Bytes execute_global(const Bytes& request, const ShardView& shards) override;
  Bytes snapshot() const override;
  void install(const Bytes& state) override;

  std::size_t held_locks() const {
    std::lock_guard<std::mutex> guard(mu_);
    return locks_.size();
  }

  static Bytes make_acquire(const std::string& name, std::uint64_t owner);
  static Bytes make_release(const std::string& name, std::uint64_t owner);
  static Bytes make_check(const std::string& name);

  struct AcquireResult {
    bool granted = false;
    std::uint64_t fencing_token = 0;
  };
  static AcquireResult parse_acquire_reply(const Bytes& reply);
  static bool parse_release_reply(const Bytes& reply);
  struct CheckResult {
    bool held = false;
    std::uint64_t owner = 0;
    std::uint64_t fencing_token = 0;
  };
  static CheckResult parse_check_reply(const Bytes& reply);

 private:
  struct Lock {
    std::uint64_t owner = 0;
    std::uint64_t fencing_token = 0;
  };
  // Same contract as KvService::mu_: overlapping execute() calls under the
  // affinity executor plus cross-thread held_locks()/snapshot() probes
  // from tests and benches.
  mutable std::mutex mu_;
  std::map<std::string, Lock> locks_;
  std::uint64_t next_fencing_token_ = 1;
};

}  // namespace mcsmr::smr
