// Integration-test fixture: a full SimNet cluster of real threaded
// replicas plus helper accessors.
//
// One environment variable parameterizes every cluster built here (and
// the TCP fixture): MCSMR_CONFIG="key=value key=value ...", whitespace-
// separated Config::apply_overrides pairs. tests/CMakeLists.txt registers
// the replica_sim, chaos and replica_tcp binaries extra times with it set
// (the MCSMR_TEST_MATRIX list), so tier-1 exercises the full matrix.
//
// Under segment storage each cluster gets a private temp log directory
// (removed in the destructor) unless the test pinned Config::log_dir
// itself, so concurrent ctest jobs never share segment files.
#pragma once

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "net/simnet.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

namespace mcsmr::smr::testing {

/// Apply the MCSMR_CONFIG overrides (if set) on top of `config`.
inline Config apply_matrix_env(Config config) {
  if (const char* pairs = std::getenv("MCSMR_CONFIG")) {
    std::istringstream in(pairs);
    config.apply_overrides(Config::parse_pairs({std::istream_iterator<std::string>(in), {}}));
  }
  return config;
}

/// Appends `pairs` to MCSMR_CONFIG for one scope (later pairs win), so a
/// test can force a setting on top of whichever matrix variant runs. An
/// unset variable is restored as "", which also means no pairs.
class ScopedMatrixEnv {
 public:
  explicit ScopedMatrixEnv(const std::string& pairs) {
    const char* prev = std::getenv("MCSMR_CONFIG");
    saved_ = prev ? prev : "";
    ::setenv("MCSMR_CONFIG", (saved_ + " " + pairs).c_str(), 1);
  }
  ~ScopedMatrixEnv() { ::setenv("MCSMR_CONFIG", saved_.c_str(), 1); }

 private:
  std::string saved_;
};

/// A fresh process-unique directory under the system temp dir.
inline std::string unique_log_dir() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t id = counter.fetch_add(1, std::memory_order_relaxed);
  return (std::filesystem::temp_directory_path() /
          ("mcsmr-seg-" + std::to_string(::getpid()) + "-" + std::to_string(id)))
      .string();
}

inline net::SimNetParams fast_net() {
  net::SimNetParams params;
  params.one_way_ns = 20'000;  // 20 us
  params.node_pps = 0;         // unlimited: correctness tests, not benches
  params.node_bandwidth_bps = 0;
  return params;
}

class SimCluster {
 public:
  using ServiceFactory = std::function<std::unique_ptr<Service>()>;
  /// Per-replica config mutation applied just before a replica is built
  /// (and again on restart) — clock-fault injection tests warp one node's
  /// Config::clock_offset_ns / clock_rate_ppm this way.
  using ConfigTweak = std::function<void(ReplicaId, Config&)>;

  explicit SimCluster(Config config, net::SimNetParams net_params = fast_net(),
                      ServiceFactory factory = [] { return std::make_unique<NullService>(); },
                      ConfigTweak tweak = nullptr)
      : config_(apply_matrix_env(config)), net_(net_params), factory_(std::move(factory)),
        tweak_(std::move(tweak)) {
    if (config_.log_storage == StorageImpl::kSegment &&
        config_.log_dir == Config{}.log_dir) {
      // The test didn't pin a directory: isolate this cluster's segments.
      owned_log_dir_ = unique_log_dir();
      config_.log_dir = owned_log_dir_;
    }
    for (int id = 0; id < config_.n; ++id) {
      nodes_.push_back(net_.add_node("replica-" + std::to_string(id)));
    }
    for (int id = 0; id < config_.n; ++id) {
      // The factory is invoked once per partition inside create_sim, so
      // each pipeline gets its own shard instance.
      replicas_.push_back(Replica::create_sim(node_config(static_cast<ReplicaId>(id)),
                                              static_cast<ReplicaId>(id), net_, nodes_,
                                              Replica::ServiceFactory(factory_)));
    }
  }

  ~SimCluster() {
    stop();
    if (!owned_log_dir_.empty()) {
      replicas_.clear();  // close segment files before deleting them
      std::error_code ec;
      std::filesystem::remove_all(owned_log_dir_, ec);
    }
  }

  void start() {
    for (auto& replica : replicas_) {
      if (replica) replica->start();
    }
  }

  void stop() {
    for (auto& replica : replicas_) {
      if (replica) replica->stop();
    }
  }

  /// Kill one replica (stops its threads; peers see silence).
  void crash(ReplicaId id) {
    replicas_[id]->stop();
  }

  /// Bring a crashed replica back on the same SimNet node (the
  /// kill-and-recover scenario). With memory storage it returns EMPTY and
  /// must catch up via the log or a snapshot install; with segment storage
  /// it reopens the same log directory and restarts from disk. Reopens the
  /// node's inboxes first — close() is permanent on the old incarnation's
  /// queues.
  void restart(ReplicaId id) {
    replicas_[id].reset();  // joins any remaining threads
    for (int from = 0; from < config_.n; ++from) {
      if (static_cast<ReplicaId>(from) == id) continue;
      net_.reset_inbox(nodes_[id], kPeerChannelBase + static_cast<net::Channel>(from));
    }
    for (int t = 0; t < config_.client_io_threads; ++t) {
      net_.reset_inbox(nodes_[id], kClientIoChannelBase + static_cast<net::Channel>(t));
    }
    replicas_[id] = Replica::create_sim(node_config(id), id, net_, nodes_,
                                        Replica::ServiceFactory(factory_));
    replicas_[id]->start();
  }

  /// Wait until some replica claims leadership; returns its id.
  std::optional<ReplicaId> wait_for_leader(std::uint64_t timeout_ns = 5 * kSeconds) {
    const std::uint64_t deadline = mono_ns() + timeout_ns;
    while (mono_ns() < deadline) {
      for (auto& replica : replicas_) {
        if (replica && replica->is_leader()) return replica->id();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return std::nullopt;
  }

  SimClient make_client(paxos::ClientId id) {
    return SimClient(net_, nodes_, id, config_.client_io_threads);
  }

  Config& config() { return config_; }
  net::SimNetwork& net() { return net_; }
  const std::vector<net::NodeId>& nodes() const { return nodes_; }
  Replica& replica(ReplicaId id) { return *replicas_[id]; }

 private:
  Config node_config(ReplicaId id) const {
    Config config = config_;
    if (tweak_) tweak_(id, config);
    return config;
  }

  Config config_;
  net::SimNetwork net_;
  ServiceFactory factory_;
  ConfigTweak tweak_;
  std::vector<net::NodeId> nodes_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::string owned_log_dir_;  ///< temp segment dir to delete, if we made one
};

}  // namespace mcsmr::smr::testing
