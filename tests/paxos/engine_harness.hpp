// Test harness: drives N paxos::Engine instances through an in-memory
// message pool with full control over delivery order, loss, duplication
// and retransmission — the deterministic schedule explorer used by both
// the unit tests and the property tests.
//
// With `durable = true` every engine writes a real SegmentStorage log in
// a private temp directory (no-op fsync: the tests model write ordering,
// not disk latency) and the harness syncs after absorbing each effect
// batch — the synchronous-acceptor model, mirroring the durability gate
// in the real ProtocolThread where no message leaves the replica before
// the records behind it are durable. `crash_restart(id)` then models a
// process crash: the engine object and its armed retransmissions are
// destroyed and a fresh engine recovers purely from the segment files.
#pragma once

#include <unistd.h>

#include <atomic>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rand.hpp"
#include "paxos/engine.hpp"
#include "paxos/storage.hpp"

namespace mcsmr::paxos::testing {

struct PendingMessage {
  ReplicaId from = 0;
  ReplicaId to = 0;
  Message message;
};

/// A fresh process-unique directory under the system temp dir.
inline std::string unique_harness_dir() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t id = counter.fetch_add(1, std::memory_order_relaxed);
  return (std::filesystem::temp_directory_path() /
          ("mcsmr-harness-" + std::to_string(::getpid()) + "-" + std::to_string(id)))
      .string();
}

class Cluster {
 public:
  explicit Cluster(int n, std::uint32_t window = 10, bool durable = false)
      : durable_(durable) {
    config_.n = n;
    config_.window_size = window;
    if (durable_) dir_ = unique_harness_dir();
    for (int id = 0; id < n; ++id) {
      storages_.push_back(durable_ ? make_storage(static_cast<ReplicaId>(id)) : nullptr);
      engines_.push_back(std::make_unique<Engine>(config_, static_cast<ReplicaId>(id),
                                                  storages_.back().get()));
      delivered_.emplace_back();
      retransmits_.emplace_back();
    }
  }

  ~Cluster() {
    if (!dir_.empty()) {
      engines_.clear();   // engines reference the storages
      storages_.clear();  // close segment files before deleting them
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  Config& config() { return config_; }
  Engine& engine(ReplicaId id) { return *engines_[id]; }
  int n() const { return config_.n; }

  /// Kick off: view-0 leader runs Phase 1.
  void start() {
    for (int id = 0; id < config_.n; ++id) {
      std::vector<Effect> out;
      engines_[static_cast<std::size_t>(id)]->start(out);
      absorb(static_cast<ReplicaId>(id), out);
    }
  }

  /// Crash replica `id` and bring it back from its durable log (durable
  /// clusters only). The process loses its armed retransmissions and its
  /// delivered history (the state machine re-executes from the log on
  /// recovery, so `delivered(id)` restarts from instance 0); in-flight
  /// messages survive — the network may still deliver them to the new
  /// incarnation, exactly as a real network would.
  void crash_restart(ReplicaId id) {
    retransmits_[id].clear();
    delivered_[id].clear();
    engines_[id].reset();
    storages_[id].reset();  // final close; recovery must reread the files
    storages_[id] = make_storage(id);
    engines_[id] = std::make_unique<Engine>(config_, id, storages_[id].get());
    std::vector<Effect> out;
    engines_[id]->start(out);
    absorb(id, out);
  }

  /// Process effects produced by engine `self`, queueing outbound traffic.
  void absorb(ReplicaId self, std::vector<Effect>& effects) {
    for (auto& effect : effects) {
      std::visit(
          [&](auto& e) {
            using T = std::decay_t<decltype(e)>;
            if constexpr (std::is_same_v<T, SendTo>) {
              if (e.to != self) {
                pending_.push_back({self, e.to, std::move(e.message)});
                ++peer_messages_;
              }
            } else if constexpr (std::is_same_v<T, BroadcastMsg>) {
              for (int to = 0; to < config_.n; ++to) {
                if (static_cast<ReplicaId>(to) != self) {
                  pending_.push_back({self, static_cast<ReplicaId>(to), e.message});
                  ++peer_messages_;
                }
              }
            } else if constexpr (std::is_same_v<T, Deliver>) {
              delivered_[self].push_back({e.instance, e.value});
            } else if constexpr (std::is_same_v<T, ScheduleRetransmit>) {
              retransmits_[self][e.key] = e.message;
            } else if constexpr (std::is_same_v<T, CancelRetransmit>) {
              retransmits_[self].erase(e.key);
            } else if constexpr (std::is_same_v<T, CancelAllRetransmits>) {
              retransmits_[self].clear();
            } else if constexpr (std::is_same_v<T, InstallSnapshot>) {
              snapshots_installed_[self].push_back(e.next_instance);
            }
            // ViewChanged: informational only.
          },
          effect);
    }
    effects.clear();
    // Synchronous-acceptor model: whatever this event appended becomes
    // durable before its outbound messages can be delivered (they only
    // sit in pending_ until now).
    if (durable_) storages_[self]->sync();
  }

  std::size_t pending_count() const { return pending_.size(); }

  /// Peer messages the engines have sent (one per addressee) so far;
  /// harness-fired retransmissions are not counted.
  std::size_t peer_messages() const { return peer_messages_; }

  /// Deliver pending message at `index` (default: oldest first).
  void deliver_one(std::size_t index = 0) {
    PendingMessage pm = std::move(pending_[index]);
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));
    std::vector<Effect> out;
    engines_[pm.to]->on_message(pm.from, pm.message, out);
    absorb(pm.to, out);
  }

  /// Drop pending message at `index`.
  void drop_one(std::size_t index) {
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));
  }

  /// Duplicate pending message at `index`.
  void duplicate_one(std::size_t index) { pending_.push_back(pending_[index]); }

  /// Deliver everything (repeatedly, since deliveries spawn messages).
  void settle(std::size_t max_steps = 100000) {
    std::size_t steps = 0;
    while (!pending_.empty() && steps++ < max_steps) deliver_one();
  }

  /// Re-broadcast every armed retransmission on every replica.
  void fire_retransmits() {
    for (int id = 0; id < config_.n; ++id) {
      for (const auto& [key, message] : retransmits_[static_cast<std::size_t>(id)]) {
        for (int to = 0; to < config_.n; ++to) {
          if (to != id) {
            pending_.push_back(
                {static_cast<ReplicaId>(id), static_cast<ReplicaId>(to), message});
          }
        }
      }
    }
  }

  void fire_heartbeats() {
    for (int id = 0; id < config_.n; ++id) {
      std::vector<Effect> out;
      engines_[static_cast<std::size_t>(id)]->on_heartbeat_timer(out);
      absorb(static_cast<ReplicaId>(id), out);
    }
  }

  void fire_catchup_timers() {
    for (int id = 0; id < config_.n; ++id) {
      std::vector<Effect> out;
      engines_[static_cast<std::size_t>(id)]->on_catchup_timer(out);
      absorb(static_cast<ReplicaId>(id), out);
    }
  }

  bool offer_batch(ReplicaId id, Bytes batch) {
    std::vector<Effect> out;
    const bool taken = engines_[id]->on_batch(std::move(batch), out);
    absorb(id, out);
    return taken;
  }

  void suspect(ReplicaId id) {
    std::vector<Effect> out;
    engines_[id]->on_suspect_leader(out);
    absorb(id, out);
  }

  /// Current leader engine, if any replica believes it leads the max view.
  Engine* current_leader() {
    Engine* best = nullptr;
    for (auto& engine : engines_) {
      if (engine->is_leader() && (best == nullptr || engine->view() > best->view())) {
        best = engine.get();
      }
    }
    return best;
  }

  struct DeliveredEntry {
    InstanceId instance;
    Bytes value;
  };
  const std::vector<DeliveredEntry>& delivered(ReplicaId id) const { return delivered_[id]; }

  const std::map<ReplicaId, std::vector<InstanceId>>& snapshots_installed() const {
    return snapshots_installed_;
  }

  std::deque<PendingMessage>& pending() { return pending_; }

 private:
  std::unique_ptr<LogStorage> make_storage(ReplicaId id) {
    SegmentStorageOptions options;
    options.dir = dir_ + "/r" + std::to_string(id);
    options.fsync_batch_ns = 0;
    options.fsync_fn = [](int) { return 0; };  // ordering model, not a disk model
    return std::make_unique<SegmentStorage>(options);
  }

  Config config_;
  bool durable_;
  std::string dir_;  ///< temp segment root, empty when not durable
  std::vector<std::unique_ptr<LogStorage>> storages_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::deque<PendingMessage> pending_;
  std::size_t peer_messages_ = 0;
  std::vector<std::vector<DeliveredEntry>> delivered_;
  std::vector<std::map<std::uint64_t, Message>> retransmits_;
  std::map<ReplicaId, std::vector<InstanceId>> snapshots_installed_;
};

}  // namespace mcsmr::paxos::testing
