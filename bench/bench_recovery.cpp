// Recovery — time for a crashed follower to rejoin with the survivors'
// state, memory vs segment log storage (not a paper figure; the durable
// WAL is an extension over the paper's in-memory replicas).
//
// Scenario per point: build a 3-replica cluster, drive PUTS_BEFORE keyed
// writes, crash a follower, drive 100 more (the gap the victim missed),
// freeze traffic, then restart the victim and measure wall time until its
// state manifest is byte-identical to the survivors'. With memory storage
// the victim restarts empty and recovers entirely from its peers (catch-up
// / snapshot install); with segment storage it replays its own log first
// and only fetches the gap.
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "smr/client.hpp"

using namespace mcsmr;

namespace {

/// One crash-recovery measurement; returns milliseconds from the restart
/// call (which includes log replay inside replica construction) to full
/// state convergence. Negative on timeout (recorded as missing).
double measure_recovery_ms(const std::string& storage, int puts_before, int puts_after,
                           std::uint64_t seed) {
  Config config;
  config.apply_overrides({{"log_storage", storage}});
  config.retransmit_timeout_ns = 50 * kMillis;
  config.catchup_interval_ns = 25 * kMillis;
  config.snapshot_interval_instances = 8;
  std::string log_dir;
  if (config.log_storage == StorageImpl::kSegment) {
    log_dir = bench::unique_bench_log_dir();
    config.log_dir = log_dir;
  }

  net::SimNetParams net_params;
  net_params.one_way_ns = 20'000;  // 20 us; correctness-test geometry
  net_params.node_pps = 0;
  net_params.node_bandwidth_bps = 0;
  net_params.seed = seed;
  net::SimNetwork network(net_params);

  std::vector<net::NodeId> nodes;
  for (int id = 0; id < config.n; ++id) {
    nodes.push_back(network.add_node("replica-" + std::to_string(id)));
  }
  smr::Replica::ServiceFactory factory = [] {
    return std::unique_ptr<smr::Service>(std::make_unique<smr::KvService>());
  };
  auto make_replica = [&](ReplicaId id) {
    Config per_replica = config;
    per_replica.thread_name_prefix = "r" + std::to_string(id) + "/";
    return smr::Replica::create_sim(per_replica, id, network, nodes, factory);
  };
  std::vector<std::unique_ptr<smr::Replica>> replicas;
  for (int id = 0; id < config.n; ++id) {
    replicas.push_back(make_replica(static_cast<ReplicaId>(id)));
  }
  for (auto& replica : replicas) replica->start();

  auto cleanup = [&] {
    for (auto& replica : replicas) {
      if (replica) replica->stop();
    }
    if (!log_dir.empty()) {
      replicas.clear();  // close segment files before deleting them
      std::error_code ec;
      std::filesystem::remove_all(log_dir, ec);
    }
  };

  // Wait for a leader, then pick a follower as the victim.
  ReplicaId leader = 0;
  {
    const std::uint64_t deadline = mono_ns() + 10 * kSeconds;
    bool found = false;
    while (mono_ns() < deadline && !found) {
      for (auto& replica : replicas) {
        if (replica->is_leader()) {
          leader = replica->id();
          found = true;
        }
      }
      if (!found) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!found) {
      cleanup();
      return -1;
    }
  }
  const ReplicaId victim = static_cast<ReplicaId>((leader + 1) % config.n);

  smr::SimClient client(network, nodes, /*id=*/1, config.client_io_threads);
  auto drive = [&](int puts, int base) {
    for (int i = 0; i < puts; ++i) {
      const std::string key = "k" + std::to_string((base + i) % 64);
      client.call(smr::KvService::make_put(key, Bytes{static_cast<std::uint8_t>(i)}));
    }
  };

  drive(puts_before, 0);
  replicas[victim]->stop();
  drive(puts_after, puts_before);

  // Freeze traffic and let the survivors settle on the target manifest.
  const ReplicaId s1 = static_cast<ReplicaId>((victim + 1) % config.n);
  const ReplicaId s2 = static_cast<ReplicaId>((victim + 2) % config.n);
  Bytes target;
  {
    const std::uint64_t deadline = mono_ns() + 15 * kSeconds;
    while (mono_ns() < deadline) {
      target = replicas[s1]->state_manifest();
      if (!target.empty() && target == replicas[s2]->state_manifest()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  // Restart the victim on the same node (and, with segment storage, the
  // same log directory) and time the full rejoin.
  const std::uint64_t t0 = mono_ns();
  replicas[victim].reset();
  for (int from = 0; from < config.n; ++from) {
    if (static_cast<ReplicaId>(from) == victim) continue;
    network.reset_inbox(nodes[victim], smr::kPeerChannelBase + static_cast<net::Channel>(from));
  }
  for (int t = 0; t < config.client_io_threads; ++t) {
    network.reset_inbox(nodes[victim], smr::kClientIoChannelBase + static_cast<net::Channel>(t));
  }
  replicas[victim] = make_replica(victim);
  replicas[victim]->start();

  const std::uint64_t deadline = mono_ns() + 30 * kSeconds;
  bool converged = false;
  while (mono_ns() < deadline) {
    if (replicas[victim]->state_manifest() == target) {
      converged = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double elapsed_ms = static_cast<double>(mono_ns() - t0) / 1e6;
  cleanup();
  return converged ? elapsed_ms : -1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, "recovery");
  bench::BenchReport report(
      args, "Recovery: follower rejoin time after a crash (memory vs segment log)");

  std::vector<std::string> storages = {"memory", "segment"};
  // --set log_storage=... measures that backend alone.
  if (const auto it = args.set.find("log_storage"); it != args.set.end()) storages = {it->second};
  const std::vector<int> sweep = bench::smoke_thin(args, std::vector<int>{200, 600, 1200});
  constexpr int kPutsAfter = 100;  // the gap decided while the victim is down

  bench::print_header("Recovery: follower rejoin time after a crash");
  std::printf("  %-8s %12s %14s\n", "storage", "puts before", "recovery (ms)");
  for (const auto& storage : storages) {
    for (int puts : sweep) {
      auto& series = report
                         .series(storage + " recovery [real]", "real", "recovery_time",
                                 "ms", "puts_before_crash")
                         .config("storage", storage)
                         .config("puts_after_crash", kPutsAfter);
      for (int rep = 0; rep < args.repeat; ++rep) {
        const double ms =
            measure_recovery_ms(storage, puts, kPutsAfter,
                                args.seed + static_cast<std::uint64_t>(rep));
        if (ms < 0) {
          std::fprintf(stderr, "  WARNING: %s/%d puts did not converge (skipped)\n",
                       storage.c_str(), puts);
          continue;
        }
        std::printf("  %-8s %12d %14.1f\n", storage.c_str(), puts, ms);
        series.point(puts, ms);
      }
    }
  }
  return report.finish();
}
