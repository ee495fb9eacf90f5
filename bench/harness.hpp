// Shared measurement harness for the per-figure/table bench binaries.
//
// Two kinds of series appear in the benches, always labeled in the output:
//   [real]  — the actual threaded implementation running on this host
//             (SimNet transport so the paper's NIC model applies), with
//             process affinity restricted to the requested core count;
//   [model] — the calibrated bottleneck model (src/sim) extrapolating
//             core counts this host does not have.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "baseline/zk_cluster.hpp"
#include "common/affinity.hpp"
#include "common/clock.hpp"
#include "common/histogram.hpp"
#include "metrics/sampler.hpp"
#include "metrics/thread_stats.hpp"
#include "net/simnet.hpp"
#include "report.hpp"
#include "sim/model.hpp"
#include "smr/replica.hpp"
#include "smr/swarm.hpp"

namespace mcsmr::bench {

struct RealRunParams {
  Config config;
  net::SimNetParams net;
  int cores = 0;  ///< restrict the process to this many cores (0 = all)
  int swarm_workers = 4;
  int clients_per_worker = 100;
  std::uint64_t swarm_retry_timeout_ns = 1 * kSeconds;
  std::uint64_t warmup_ns = 600 * kMillis;
  std::uint64_t measure_ns = 2 * kSeconds;
  bool baseline = false;  ///< run the ZooKeeper-like replica instead
  baseline::ZkParams zk_params;
  /// Replicated service, one instance per partition (default NullService —
  /// the paper's benchmark service).
  smr::Replica::ServiceFactory service_factory;
  /// What the swarm sends (kKv needs service_factory = KvService).
  smr::ClientSwarm::Workload workload = smr::ClientSwarm::Workload::kNull;
  int kv_keys = 1024;
  int kv_conflict_pct = 0;
  int read_pct = 0;  ///< % of kv requests that are GETs
};

struct QueueAverages {
  double request_mean = 0, request_stderr = 0;
  double proposal_mean = 0, proposal_stderr = 0;
  double dispatcher_mean = 0, dispatcher_stderr = 0;
  double window_mean = 0, window_stderr = 0;
};

struct RealRunResult {
  double throughput_rps = 0;
  double throughput_stderr = 0;  ///< across --repeat runs (0 for a single run)
  int repeats = 1;               ///< runs averaged into this result
  double wall_s = 0;             ///< actual measurement-window wall time
  double total_cpu_cores = 0;     ///< process CPU time / wall time
  double total_blocked_cores = 0; ///< aggregate lock-blocked time / wall
  double client_latency_p50_us = 0;
  double leader_rtt_during_ns = 0;   ///< ping to the leader mid-run
  double other_rtt_during_ns = 0;    ///< ping between bystander nodes
  double idle_rtt_ns = 0;            ///< ping before the run
  double avg_batch_requests = 0;     ///< executed requests / decided instances
  /// Lease read path deltas over the window (leader; 0 on consensus path).
  std::uint64_t lease_reads = 0;
  std::uint64_t lease_read_fallbacks = 0;
  QueueAverages queues;
  metrics::NetCounters::Snapshot leader_net;  ///< deltas over the window
  /// SimNet delivery lateness (ns past each message's due time) over the
  /// window; merged across --repeat runs.
  Histogram simnet_lateness;
  std::vector<metrics::ThreadStateSnapshot> leader_threads;  // r0/ threads
};

/// A fresh process-unique segment-log directory under the system temp dir.
inline std::string unique_bench_log_dir() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t id = counter.fetch_add(1, std::memory_order_relaxed);
  return (std::filesystem::temp_directory_path() /
          ("mcsmr-bench-" + std::to_string(::getpid()) + "-" + std::to_string(id)))
      .string();
}

/// Run one real experiment on SimNet and measure everything the paper's
/// tables and figures report.
inline RealRunResult run_real(const RealRunParams& params) {
  RealRunResult result;

  if (params.cores > 0) pin_process_to_cores(params.cores);
  metrics::ThreadRegistry::instance().clear();

  net::SimNetwork network(params.net);
  Config config = params.config;
  // Segment storage: isolate each run's log files in a fresh temp dir —
  // reopening a previous run's (or repeat's) logs would make the replicas
  // start mid-history and corrupt the measurement.
  std::string owned_log_dir;
  if (config.log_storage == StorageImpl::kSegment && config.log_dir == Config{}.log_dir) {
    owned_log_dir = unique_bench_log_dir();
    config.log_dir = owned_log_dir;
  }

  std::vector<net::NodeId> nodes;
  for (int id = 0; id < config.n; ++id) {
    nodes.push_back(network.add_node("replica-" + std::to_string(id)));
  }
  // Two bystander nodes for the Table II "other <-> other" probes.
  const net::NodeId other1 = network.add_node("bystander-1");
  const net::NodeId other2 = network.add_node("bystander-2");

  result.idle_rtt_ns = static_cast<double>(network.ping_rtt_ns(other1, nodes[0]));

  smr::Replica::ServiceFactory factory = params.service_factory;
  if (!factory) {
    factory = [] { return std::make_unique<smr::NullService>(); };
  }
  std::vector<std::unique_ptr<smr::Replica>> replicas;
  std::vector<std::unique_ptr<baseline::ZkReplica>> zk_replicas;
  for (int id = 0; id < config.n; ++id) {
    Config per_replica = config;
    per_replica.thread_name_prefix = "r" + std::to_string(id) + "/";
    if (params.baseline) {
      zk_replicas.push_back(baseline::ZkReplica::create_sim(
          per_replica, static_cast<ReplicaId>(id), network, nodes, factory(),
          params.zk_params));
    } else {
      replicas.push_back(smr::Replica::create_sim(per_replica, static_cast<ReplicaId>(id),
                                                  network, nodes, factory));
    }
  }
  for (auto& replica : replicas) replica->start();
  for (auto& replica : zk_replicas) replica->start();

  smr::ClientSwarm::Params swarm_params;
  swarm_params.workers = params.swarm_workers;
  swarm_params.clients_per_worker = params.clients_per_worker;
  swarm_params.payload_bytes = config.request_payload_bytes;
  swarm_params.io_threads = config.client_io_threads;
  swarm_params.retry_timeout_ns = params.swarm_retry_timeout_ns;
  swarm_params.workload = params.workload;
  swarm_params.kv_keys = params.kv_keys;
  swarm_params.kv_conflict_pct = params.kv_conflict_pct;
  swarm_params.read_pct = params.read_pct;
  smr::ClientSwarm swarm(network, nodes, swarm_params);

  metrics::GaugeSampler sampler(20 * kMillis);
  if (!params.baseline) {
    smr::Replica& leader = *replicas[0];
    sampler.add_gauge("RequestQueue",
                      [&] { return static_cast<double>(leader.request_queue_size()); });
    sampler.add_gauge("ProposalQueue",
                      [&] { return static_cast<double>(leader.proposal_queue_size()); });
    sampler.add_gauge("DispatcherQueue",
                      [&] { return static_cast<double>(leader.dispatcher_queue_size()); });
    sampler.add_gauge("Window", [&] { return static_cast<double>(leader.window_in_use()); });
  }

  swarm.start();
  sampler.start();
  std::this_thread::sleep_for(std::chrono::nanoseconds(params.warmup_ns));

  // ---- measurement window -------------------------------------------------
  sampler.reset();
  metrics::ThreadRegistry::instance().reset_epoch();
  const std::uint64_t completed_before = swarm.completed();
  const std::uint64_t lease_reads_before =
      replicas.empty() ? 0 : replicas[0]->shared().lease_reads.load();
  const std::uint64_t lease_fallbacks_before =
      replicas.empty() ? 0 : replicas[0]->shared().lease_read_fallbacks.load();
  const std::uint64_t cpu_before = process_cpu_ns();
  const auto net_before = network.counters(nodes[0]).snapshot();
  network.reset_lateness();
  const std::uint64_t t0 = mono_ns();

  // Mid-run RTT probes (Table II), averaged over several samples.
  double leader_rtt_sum = 0, other_rtt_sum = 0;
  constexpr int kProbes = 4;
  for (int probe = 0; probe < kProbes; ++probe) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(params.measure_ns / (kProbes + 1)));
    leader_rtt_sum += static_cast<double>(network.ping_rtt_ns(other1, nodes[0]));
    other_rtt_sum += static_cast<double>(network.ping_rtt_ns(other1, other2));
  }
  result.leader_rtt_during_ns = leader_rtt_sum / kProbes;
  result.other_rtt_during_ns = other_rtt_sum / kProbes;
  std::this_thread::sleep_for(std::chrono::nanoseconds(params.measure_ns / (kProbes + 1)));

  const std::uint64_t wall_ns = mono_ns() - t0;
  const std::uint64_t completed = swarm.completed() - completed_before;
  const std::uint64_t cpu_ns = process_cpu_ns() - cpu_before;
  result.leader_net = network.counters(nodes[0]).snapshot() - net_before;
  result.simnet_lateness = network.lateness();
  auto snaps = metrics::ThreadRegistry::instance().snapshot_all();
  auto latency = swarm.latency_histogram();

  sampler.stop();
  for (auto& gauge : sampler.results()) {
    if (gauge.name == "RequestQueue") {
      result.queues.request_mean = gauge.mean;
      result.queues.request_stderr = gauge.stderr_mean;
    } else if (gauge.name == "ProposalQueue") {
      result.queues.proposal_mean = gauge.mean;
      result.queues.proposal_stderr = gauge.stderr_mean;
    } else if (gauge.name == "DispatcherQueue") {
      result.queues.dispatcher_mean = gauge.mean;
      result.queues.dispatcher_stderr = gauge.stderr_mean;
    } else if (gauge.name == "Window") {
      result.queues.window_mean = gauge.mean;
      result.queues.window_stderr = gauge.stderr_mean;
    }
  }

  const double wall_s = static_cast<double>(wall_ns) * 1e-9;
  result.wall_s = wall_s;
  result.throughput_rps = static_cast<double>(completed) / wall_s;
  result.total_cpu_cores = static_cast<double>(cpu_ns) / static_cast<double>(wall_ns);
  result.client_latency_p50_us = static_cast<double>(latency.percentile(50)) / 1e3;

  double blocked_total = 0;
  for (const auto& snap : snaps) {
    blocked_total += static_cast<double>(snap.blocked_ns);
    if (snap.name.rfind("r0/", 0) == 0) result.leader_threads.push_back(snap);
  }
  result.total_blocked_cores = blocked_total / static_cast<double>(wall_ns);

  const std::uint64_t decided = params.baseline
                                    ? zk_replicas[0]->shared().decided_instances.load()
                                    : replicas[0]->decided_instances();
  const std::uint64_t executed = params.baseline ? zk_replicas[0]->executed_requests()
                                                 : replicas[0]->executed_requests();
  result.avg_batch_requests =
      decided == 0 ? 0 : static_cast<double>(executed) / static_cast<double>(decided);
  if (!replicas.empty()) {
    result.lease_reads = replicas[0]->shared().lease_reads.load() - lease_reads_before;
    result.lease_read_fallbacks =
        replicas[0]->shared().lease_read_fallbacks.load() - lease_fallbacks_before;
  }

  swarm.stop();
  for (auto& replica : replicas) replica->stop();
  for (auto& replica : zk_replicas) replica->stop();
  if (!owned_log_dir.empty()) {
    replicas.clear();  // close segment files before deleting them
    std::error_code ec;
    std::filesystem::remove_all(owned_log_dir, ec);
  }

  if (params.cores > 0) unpin_process();
  return result;
}

/// Reproducible, repeatable variant: seeds the SimNet RNG from
/// `args.seed` (+rep for each of the `--repeat` runs, so repeats are
/// independent but the whole sweep replays from one recorded seed),
/// shortens the windows in `--smoke` mode, and averages the runs. The
/// returned `throughput_stderr` makes run-to-run variance visible in
/// BENCH_*.json error bars.
inline RealRunResult run_real(RealRunParams params, const BenchArgs& args) {
  if (args.smoke) {
    params.warmup_ns = std::max<std::uint64_t>(params.warmup_ns / 3, 100 * kMillis);
    params.measure_ns = std::max<std::uint64_t>(params.measure_ns / 3, 300 * kMillis);
  }
  // --workload kv [--keys N --conflict P]: keyed swarm traffic through a
  // KvService so the executor and the partitions see real conflicts.
  if (args.workload == "kv") {
    params.workload = smr::ClientSwarm::Workload::kKv;
    if (!params.service_factory) {
      params.service_factory = [] { return std::make_unique<smr::KvService>(); };
    }
  }
  if (args.kv_keys > 0) params.kv_keys = args.kv_keys;
  if (args.kv_conflict_pct >= 0) params.kv_conflict_pct = args.kv_conflict_pct;
  // --read-pct P: mixed GET/PUT traffic (bench_read_scaling sweeps it).
  if (args.read_pct >= 0) params.read_pct = args.read_pct;
  // --set key=value: Config overrides, applied last so they win over the
  // driver's own settings (the before/after A-B runs one driver twice).
  params.config.apply_overrides(args.set);
  std::vector<RealRunResult> runs;
  runs.reserve(static_cast<std::size_t>(args.repeat));
  for (int rep = 0; rep < args.repeat; ++rep) {
    params.net.seed = args.seed + static_cast<std::uint64_t>(rep);
    runs.push_back(run_real(params));
  }
  if (runs.size() == 1) return runs.front();

  const double count = static_cast<double>(runs.size());
  const auto mean_of = [&](double RealRunResult::* field) {
    double sum = 0;
    for (const auto& r : runs) sum += r.*field;
    return sum / count;
  };
  const auto queue_mean_of = [&](double QueueAverages::* field) {
    double sum = 0;
    for (const auto& r : runs) sum += r.queues.*field;
    return sum / count;
  };

  RealRunResult avg = runs.back();  // thread snapshots: last run's
  avg.repeats = static_cast<int>(runs.size());
  avg.throughput_rps = mean_of(&RealRunResult::throughput_rps);
  avg.wall_s = mean_of(&RealRunResult::wall_s);
  avg.total_cpu_cores = mean_of(&RealRunResult::total_cpu_cores);
  avg.total_blocked_cores = mean_of(&RealRunResult::total_blocked_cores);
  avg.client_latency_p50_us = mean_of(&RealRunResult::client_latency_p50_us);
  avg.leader_rtt_during_ns = mean_of(&RealRunResult::leader_rtt_during_ns);
  avg.other_rtt_during_ns = mean_of(&RealRunResult::other_rtt_during_ns);
  avg.idle_rtt_ns = mean_of(&RealRunResult::idle_rtt_ns);
  avg.avg_batch_requests = mean_of(&RealRunResult::avg_batch_requests);
  avg.queues.request_mean = queue_mean_of(&QueueAverages::request_mean);
  avg.queues.request_stderr = queue_mean_of(&QueueAverages::request_stderr);
  avg.queues.proposal_mean = queue_mean_of(&QueueAverages::proposal_mean);
  avg.queues.proposal_stderr = queue_mean_of(&QueueAverages::proposal_stderr);
  avg.queues.dispatcher_mean = queue_mean_of(&QueueAverages::dispatcher_mean);
  avg.queues.dispatcher_stderr = queue_mean_of(&QueueAverages::dispatcher_stderr);
  avg.queues.window_mean = queue_mean_of(&QueueAverages::window_mean);
  avg.queues.window_stderr = queue_mean_of(&QueueAverages::window_stderr);
  metrics::NetCounters::Snapshot net{};
  for (const auto& r : runs) {
    net.packets_out += r.leader_net.packets_out;
    net.packets_in += r.leader_net.packets_in;
    net.bytes_out += r.leader_net.bytes_out;
    net.bytes_in += r.leader_net.bytes_in;
  }
  const auto n64 = static_cast<std::uint64_t>(runs.size());
  avg.leader_net = {net.packets_out / n64, net.packets_in / n64, net.bytes_out / n64,
                    net.bytes_in / n64};
  std::uint64_t lease_sum = 0, fallback_sum = 0;
  for (const auto& r : runs) {
    lease_sum += r.lease_reads;
    fallback_sum += r.lease_read_fallbacks;
  }
  avg.lease_reads = lease_sum / n64;
  avg.lease_read_fallbacks = fallback_sum / n64;
  avg.simnet_lateness.reset();
  for (const auto& r : runs) avg.simnet_lateness.merge(r.simnet_lateness);

  double var = 0;
  for (const auto& r : runs) {
    const double d = r.throughput_rps - avg.throughput_rps;
    var += d * d;
  }
  var /= count - 1;
  avg.throughput_stderr = var > 0 ? std::sqrt(var / count) : 0;
  return avg;
}

// --- output helpers -----------------------------------------------------

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void print_thread_table(const std::vector<metrics::ThreadStateSnapshot>& snaps) {
  std::printf("  %-24s %8s %9s %9s %7s\n", "thread", "busy%", "blocked%", "waiting%",
              "other%");
  for (const auto& snap : snaps) {
    // Strip the replica prefix for figure parity with the paper.
    std::string name = snap.name;
    if (auto pos = name.find('/'); pos != std::string::npos) name = name.substr(pos + 1);
    std::printf("  %-24s %8.1f %9.1f %9.1f %7.1f\n", name.c_str(),
                100.0 * snap.busy_frac(), 100.0 * snap.blocked_frac(),
                100.0 * snap.waiting_frac(), 100.0 * snap.other_frac());
  }
}

/// Scaled NIC-bound regime for the network-limit experiments (Figs 10/11,
/// Tables I/II/III). The paper's testbed: 150K pkts/s per direction,
/// 0.06 ms RTT, 1800 clients — two host cores cannot drive 150K pkts/s of
/// real traffic, so the packet budget is scaled down (150K -> 3.5K) and
/// the RTT scaled up (0.06 ms -> 50 ms) to preserve the geometry that
/// places the window/NIC crossover near WND=35:
///     X_cap * RTT  ~  WND_crossover * batch_requests.
/// Protocol timers scale with the RTT. Absolute req/s and latencies are
/// therefore scaled; the curves' SHAPES are the reproduction target.
inline void apply_scaled_nic_regime(RealRunParams& params) {
  params.net.node_pps = 3'500;
  params.net.node_bandwidth_bps = 2.7e6;  // 114 MB/s scaled by the same 43x
  params.net.one_way_ns = 25 * kMillis;   // RTT 50 ms
  params.config.retransmit_timeout_ns = 4 * kSeconds;
  params.config.fd_suspect_timeout_ns = 4 * kSeconds;
  params.config.batch_timeout_ns = 20 * kMillis;
  params.swarm_workers = 4;
  // Enough closed-loop clients that the population never binds before the
  // NIC cap (the paper's 1800 clients serve the same purpose).
  params.clients_per_worker = 300;
  params.swarm_retry_timeout_ns = 8 * kSeconds;
  params.warmup_ns = 2 * kSeconds;
  params.measure_ns = 3 * kSeconds;
}

/// Scaled NIC regime with the shared-flag overrides applied: `--budget`
/// replaces the packet budget (the bandwidth cap scales with it so the
/// binding constraint stays packets, as in the paper).
inline void apply_scaled_nic_regime(RealRunParams& params, const BenchArgs& args) {
  apply_scaled_nic_regime(params);
  if (args.budget_pps > 0) {
    params.net.node_bandwidth_bps *= args.budget_pps / params.net.node_pps;
    params.net.node_pps = args.budget_pps;
  }
}

/// How many cores the [real] sweeps cover: every core this host has, or
/// just one in `--smoke` mode (CI wants the pipeline exercised, not the
/// full sweep).
inline int real_core_cap(const BenchArgs& args) {
  return args.smoke ? 1 : hardware_cores();
}

/// Thin a sweep list to its endpoints in `--smoke` mode.
template <class T>
inline std::vector<T> smoke_thin(const BenchArgs& args, std::vector<T> full) {
  if (!args.smoke || full.size() <= 2) return full;
  return {full.front(), full.back()};
}

/// The model of the paper's edel cluster (8-core Xeons; Figs 6 and 7).
/// The edel nodes ran fewer, individually-busier stages (different CPU,
/// different JIT profile): scale stage demands so the 1-core throughput
/// matches the paper's ~11.5K req/s, and keep its measured speedup curve.
inline sim::SmrModel edel_model() {
  sim::SmrCostProfile profile;
  const double scale = 1.6;
  profile.clientio_ns *= scale;
  profile.batcher_ns *= scale;
  profile.protocol_batch_ns *= scale;
  profile.protocol_msg_ns *= scale;
  profile.replica_exec_ns *= scale;
  profile.replicaio_snd_batch_ns *= scale;
  profile.replicaio_rcv_msg_ns *= scale;
  // Paper Fig 7: ~3x CPU for a ~7x speedup => heavy 1-core sharing tax.
  profile.single_core_tax = 2.3;
  sim::ScalingCurve curve;
  curve.points = {{1, 1.0}, {2, 1.95}, {4, 3.9}, {6, 5.8}, {8, 7.0}};
  return {profile, curve};
}

/// The core counts a sweep covers: every real count this host has, then
/// the modeled counts up to `max_cores`.
inline std::vector<int> sweep_cores(int max_cores) {
  std::vector<int> cores;
  for (int k = 1; k <= max_cores; ++k) {
    if (max_cores > 12 && k > 12 && k % 2 == 1) continue;  // thin the tail
    cores.push_back(k);
  }
  return cores;
}

}  // namespace mcsmr::bench
