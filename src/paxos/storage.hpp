// Durable log storage behind the Paxos engine (ROADMAP open item 1).
//
// The engine records every safety-critical transition as a DurableRecord:
//   kPromise  — the acceptor adopted a view (it must never answer a lower
//               Prepare after a crash);
//   kAccept   — the acceptor stored a value for (view, instance) (it must
//               never deny that acceptance after a crash);
//   kDecide   — the learner decided (instance, value) (restart must
//               re-deliver the identical bytes);
//   kSnapshot — a service snapshot covering everything below
//               `next_instance` (restart installs it instead of replaying
//               from instance 0, and the storage may drop older records).
//
// Two implementations behind the LogStorage interface
// (Config::log_storage):
//   MemoryStorage  — today's behavior: nothing survives a crash; every
//                    append is instantly "durable" so the durability gate
//                    in the Protocol thread never queues anything;
//   SegmentStorage — append-only segment files of CRC-framed records with
//                    group-commit batched fsync on a dedicated flush
//                    thread. Appends are queued (never block on IO); the
//                    Protocol thread releases protocol acks only once
//                    durable_lsn() covers them, and the proposer pipeline
//                    runs at most kPreexecWindow records ahead of the
//                    durable point (libpaxos' pre-execution window; a
//                    constant in smr/protocol_thread.cpp).
//
// Crash-consistency contract of SegmentStorage::recover (run at open):
//   * a torn tail (partial frame or CRC mismatch at the END of the last
//     segment) is truncated away — those records were never acked;
//   * a CRC mismatch anywhere else is corruption and throws StorageError
//     (fail-stop: recovery refuses to invent state);
//   * fsync failure poisons the storage — every later append()/sync()
//     throws StorageError so the replica crashes instead of silently
//     running non-durable (fsync errors do not retry; see
//     checkpoint()/sync()).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/wait_strategy.hpp"
#include "paxos/types.hpp"

namespace mcsmr::paxos {

/// Storage failures are fail-stop: callers never catch-and-continue.
class StorageError : public std::runtime_error {
 public:
  explicit StorageError(const std::string& what) : std::runtime_error(what) {}
};

/// Log sequence number: 1-based append index, 0 = nothing appended.
using Lsn = std::uint64_t;

enum class RecordType : std::uint8_t {
  kPromise = 1,
  kAccept = 2,
  kDecide = 3,
  kSnapshot = 4,
};

struct DurableRecord {
  RecordType type = RecordType::kPromise;
  ViewId view = 0;          ///< kPromise / kAccept
  InstanceId instance = 0;  ///< kAccept / kDecide; kSnapshot: next_instance
  Bytes value;              ///< kAccept / kDecide value; kSnapshot: service state
  Bytes reply_cache;        ///< kSnapshot only

  static DurableRecord promise(ViewId view) { return {RecordType::kPromise, view, 0, {}, {}}; }
  static DurableRecord accept(ViewId view, InstanceId instance, Bytes value) {
    return {RecordType::kAccept, view, instance, std::move(value), {}};
  }
  static DurableRecord decide(InstanceId instance, Bytes value) {
    return {RecordType::kDecide, 0, instance, std::move(value), {}};
  }
  static DurableRecord snapshot(InstanceId next_instance, Bytes state, Bytes reply_cache) {
    return {RecordType::kSnapshot, 0, next_instance, std::move(state),
            std::move(reply_cache)};
  }
};

/// Record payload codec (the segment frame wraps this with length + CRC).
Bytes encode_record(const DurableRecord& record);
DurableRecord decode_record(std::span<const std::uint8_t> payload);  // throws DecodeError

/// CRC-32 (IEEE, reflected) over `data` — the per-record integrity check.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// The engine state reconstructed by replaying every surviving record.
struct RecoveredState {
  ViewId promised_view = 0;
  std::optional<DurableRecord> snapshot;  ///< latest kSnapshot, if any

  struct Entry {
    ViewId accepted_view = 0;
    Bytes value;
    bool decided = false;
  };
  std::map<InstanceId, Entry> entries;

  std::size_t records = 0;  ///< records replayed (introspection/tests)

  bool empty() const { return promised_view == 0 && !snapshot && entries.empty(); }
};

class LogStorage {
 public:
  virtual ~LogStorage() = default;

  virtual const char* name() const = 0;
  /// True if appends survive a process crash (the engine skips building
  /// checkpoint records for non-persistent storage).
  virtual bool persistent() const = 0;

  /// State recovered when the storage was opened (empty for memory).
  virtual const RecoveredState& recovered() const = 0;

  /// Queue `record` for durability and return its LSN. Never blocks on
  /// IO; durability is reached asynchronously (watch durable_lsn()).
  virtual Lsn append(const DurableRecord& record) = 0;

  virtual Lsn appended_lsn() const = 0;
  virtual Lsn durable_lsn() const = 0;

  /// Block until everything appended so far is durable.
  virtual void sync() = 0;

  /// Atomically replace the log's contents with `records` (a snapshot
  /// checkpoint: promise + snapshot + surviving entries) and drop all
  /// older records — the log-truncation path. Durable on return.
  virtual void checkpoint(const std::vector<DurableRecord>& records) = 0;

  bool all_durable() const { return durable_lsn() >= appended_lsn(); }
};

/// The pre-durability default: every append is immediately "durable" (a
/// crash loses everything, exactly as before this layer existed).
class MemoryStorage final : public LogStorage {
 public:
  const char* name() const override { return "memory"; }
  bool persistent() const override { return false; }
  const RecoveredState& recovered() const override { return recovered_; }
  Lsn append(const DurableRecord&) override { return ++lsn_; }
  Lsn appended_lsn() const override { return lsn_; }
  Lsn durable_lsn() const override { return lsn_; }
  void sync() override {}
  void checkpoint(const std::vector<DurableRecord>&) override {}

 private:
  RecoveredState recovered_;
  Lsn lsn_ = 0;
};

struct SegmentStorageOptions {
  std::string dir;  ///< segment directory (created if missing)
  /// Group-commit window: the flush thread batches appends and fsyncs at
  /// most once per window (0 = fsync after every write burst).
  std::uint64_t fsync_batch_ns = 1'000'000;
  /// Roll to a new segment file once the current one exceeds this.
  std::uint64_t segment_max_bytes = 8ull << 20;
  /// Test seam (fault injection): replaces ::fsync. Return < 0 to
  /// simulate an fsync failure (poisons the storage, fail-stop).
  std::function<int(int fd)> fsync_fn;
};

/// Append-only segment files: `seg-<seq>.mcl`, each a fixed header
/// followed by `[u32 len][u32 crc32(payload)][payload]` frames.
class SegmentStorage final : public LogStorage {
 public:
  /// Opens `options.dir`, recovers every surviving record (truncating a
  /// torn tail in place), and starts the flush thread. Throws
  /// StorageError on unreadable directories or mid-log corruption.
  explicit SegmentStorage(SegmentStorageOptions options);
  ~SegmentStorage() override;

  const char* name() const override { return "segment"; }
  bool persistent() const override { return true; }
  const RecoveredState& recovered() const override { return recovered_; }
  Lsn append(const DurableRecord& record) override;
  Lsn appended_lsn() const override { return appended_.load(std::memory_order_acquire); }
  Lsn durable_lsn() const override { return durable_.load(std::memory_order_acquire); }
  void sync() override;
  void checkpoint(const std::vector<DurableRecord>& records) override;

  // --- introspection / fault injection (tests) -----------------------------

  /// Drop every record not yet written to the OS and stop without a final
  /// flush — the volatile tail a real crash would lose. The object is dead
  /// afterwards; destroy it and reopen the directory to recover.
  void simulate_crash();

  bool failed() const { return failed_.load(std::memory_order_acquire); }
  std::size_t segment_count() const;
  std::uint64_t fsync_count() const { return fsyncs_.load(std::memory_order_relaxed); }

 private:
  struct Pending {
    Lsn lsn = 0;
    Bytes frame;  ///< encoded [len][crc][payload]
  };

  void flush_loop();
  /// Write `chunk` to the active segment (rolls first if needed); caller
  /// holds no lock. Returns false once the storage is poisoned.
  bool write_chunk(const std::vector<Pending>& chunk);
  bool do_fsync();
  void poison(const std::string& why);
  void open_fresh_segment();  ///< seal current, open seg-<next>; throws
  void recover();             ///< scan + truncate torn tail; throws

  bool has_pending() const;
  bool sync_requested() const;

  SegmentStorageOptions options_;
  RecoveredState recovered_;

  mutable std::mutex mu_;         ///< pending_ and the appended_ counter
  std::vector<Pending> pending_;  ///< appended, not yet written

  mutable std::mutex io_mu_;  ///< fd/segment bookkeeping (flush vs checkpoint)
  std::vector<std::uint32_t> segments_;  ///< live segment sequence numbers
  int fd_ = -1;                          ///< active segment
  std::uint64_t active_bytes_ = 0;
  std::uint32_t next_segment_ = 1;

  std::atomic<Lsn> appended_{0};
  std::atomic<Lsn> durable_{0};
  std::atomic<Lsn> sync_target_{0};  ///< fsync immediately up to this LSN
  std::atomic<bool> failed_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> fsyncs_{0};

  WaitStrategy flush_wake_;    ///< appenders -> flush thread
  WaitStrategy durable_wake_;  ///< flush thread -> sync() waiters
  std::thread flush_thread_;
};

/// Config-driven factory: one storage per (replica, partition), with
/// segment directories laid out as `<log_dir>/r<replica>/p<partition>`.
std::unique_ptr<LogStorage> make_log_storage(const Config& config, ReplicaId self,
                                             std::uint32_t partition);

}  // namespace mcsmr::paxos
