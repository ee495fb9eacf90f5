// bench_e2e — the repository's end-to-end benchmark (see README.md).
//
//   bench_e2e --workload NAME|all --seed N --seconds S --trace 0|1
//             [--data-dir DIR] [--detail FILE] [--smoke]
//
// One process starts a 3-replica cluster over SimNet (30 us one way, the
// paper's 0.06 ms idle RTT; NIC budgets off, so the program and not the
// NIC model is measured) and drives it from one load-generator thread.
//
// --trace 0: 8 rounds, each on a freshly booted cluster (setup_s): a
//   closed-loop saturation window (sat_rps), then an open-loop fixed-rate
//   window (p50_ms, p90_ms, cpu_us_per_op), S/16 seconds each. Every
//   metric is the median over the rounds.
// --trace 1: one round with the fixed-rate window twice, untraced then
//   traced (queue gauges, thread states, replica counters), then a
//   single-threaded replay of the workload's inputs through each layer;
//   prints the per-layer metrics.
// kv-durable-failover ends its last round with a failover segment.
//
// Every run checks its outputs (replies decode and carry values the
// workload wrote, live replicas end byte-identical, acknowledged writes
// read back) and prints, as its last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every check passed, 1 when one failed, 2 on a usage
// or set-up error (no result line).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "load.hpp"
#include "metrics/sampler.hpp"
#include "metrics/thread_stats.hpp"
#include "net/simnet.hpp"
#include "replay.hpp"
#include "smr/replica.hpp"
#include "workload.hpp"

using namespace mcsmr;

namespace e2e {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool smoke = false;
  std::string data_dir = ".bench_build/e2e-data";
  std::string detail;
};

/// Phase lengths of one run. A run measures in rounds, each on a freshly
/// booted cluster with two measured windows, and reports the median
/// round: a slow boot, an unlucky thread placement or a burst of load on
/// the host moves one round, not the result. The traced run is one round.
struct Timing {
  int rounds = 8;
  std::uint64_t warmup_ns = 250 * kMillis;
  std::uint64_t window_ns = 0;  ///< --seconds / (2 * rounds)
  std::uint64_t crash_after_ns = 250 * kMillis;
  std::uint64_t failover_ns = 2 * kSeconds;  ///< failover segment, crash included
  double rate_scale = 1.0;
};

Timing timing_for(const Args& args) {
  Timing t;
  double seconds = args.seconds;
  if (args.smoke) {
    seconds = 2;
    t.rounds = 2;
    t.warmup_ns = 300 * kMillis;
    t.rate_scale = 0.5;
  }
  if (args.trace) t.rounds = 1;
  t.window_ns = static_cast<std::uint64_t>(seconds * 1e9 / (2 * t.rounds));
  return t;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  std::string detail;  ///< JSON members for --detail
};

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) + ", \"failed\": " +
         std::to_string(failed) + ", \"metrics\": " + metrics_json(metrics) + "}";
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Nearest-rank percentile of `sorted` (ascending), in the samples' unit.
double percentile(const std::vector<std::uint64_t>& sorted, double pct) {
  if (sorted.empty()) return 0;
  const auto rank =
      static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1]);
}

/// Exact percentiles over every request of a window. A failed request
/// ranks at the failure limit: it missed any latency target.
struct Latency {
  std::vector<std::uint64_t> sorted;

  explicit Latency(const WindowStats& w) : sorted(w.latency_ns) {
    sorted.insert(sorted.end(), w.failed, kFailAfterNs);
    std::sort(sorted.begin(), sorted.end());
  }
  double ms(double pct) const { return percentile(sorted, pct) / 1e6; }
  /// The highest percentile with at least ten samples above it.
  double max_supported_pct() const {
    return sorted.size() <= 10 ? 0 : 100.0 * (1.0 - 10.0 / static_cast<double>(sorted.size()));
  }
  std::string json() const {
    std::string out = "{\"samples\": " + std::to_string(sorted.size());
    for (double p : {50.0, 90.0, 99.0, 99.9}) out += ", \"p" + fmt(p) + "_ms\": " + fmt(ms(p));
    return out + ", \"max_supported_pct\": " + fmt(max_supported_pct()) + "}";
  }
};

/// CPU the system spent per completed operation since construction:
/// process CPU minus the generator thread's own, in microseconds.
struct CpuMark {
  std::uint64_t process = process_cpu_ns();
  std::uint64_t generator = thread_cpu_ns();

  double us_per_op_since(std::uint64_t ops) const {
    const CpuMark now;
    const double system_ns = static_cast<double>(now.process - process) -
                             static_cast<double>(now.generator - generator);
    return ratio(system_ns / 1e3, static_cast<double>(ops));
  }
};

// --- the cluster -------------------------------------------------------------

/// Network, load generator and 3 replicas. Members are destroyed in
/// reverse order: replicas stop before the network they use goes away.
class Cluster {
 public:
  Cluster(const Workload& workload, const OpStream& ops, std::uint64_t seed,
          const std::string& log_dir)
      : net_(net_params(seed)), config_(make_config(workload, log_dir)),
        factory_(service_factory(workload)) {
    for (int id = 0; id < config_.n; ++id) {
      nodes_.push_back(net_.add_node("replica-" + std::to_string(id)));
    }
    generator_ = std::make_unique<Generator>(net_, nodes_, ops, config_.client_io_threads);
  }

  ~Cluster() {
    join_crash();
    for (auto& replica : replicas_) replica->stop();
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Create and start the replicas, then wait for the first OK reply;
  /// returns the seconds that took.
  double boot() {
    const std::uint64_t t0 = mono_ns();
    for (int id = 0; id < config_.n; ++id) {
      Config per_replica = config_;
      per_replica.thread_name_prefix = "r" + std::to_string(id) + "/";
      replicas_.push_back(smr::Replica::create_sim(per_replica, static_cast<ReplicaId>(id), net_,
                                                   nodes_, factory_));
    }
    for (auto& replica : replicas_) replica->start();
    if (!generator_->call_once(5 * kSeconds)) {
      throw std::runtime_error("set-up: no reply from the cluster within 5 s");
    }
    return static_cast<double>(mono_ns() - t0) * 1e-9;
  }

  Generator& gen() { return *generator_; }
  smr::Replica& replica(std::size_t i) { return *replicas_[i]; }
  std::size_t size() const { return replicas_.size(); }
  bool live(std::size_t i) const { return !(crashed_ && i == 0); }
  metrics::NetCounters::Snapshot leader_net() { return net_.counters(nodes_[0]).snapshot(); }

  /// Stop replica 0 on a helper thread: stop() joins its threads, and the
  /// generator must keep sending meanwhile.
  void crash_leader() {
    crashed_ = true;
    crash_thread_ = std::thread([this] { replicas_[0]->stop(); });
  }
  void join_crash() {
    if (crash_thread_.joinable()) crash_thread_.join();
  }

  std::uint64_t max_view() const {
    std::uint64_t view = 0;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (live(i)) view = std::max(view, replicas_[i]->view());
    }
    return view;
  }

 private:
  static net::SimNetParams net_params(std::uint64_t seed) {
    net::SimNetParams params;
    params.one_way_ns = 30 * kMicros;
    params.node_pps = 0;
    params.node_bandwidth_bps = 0;
    params.seed = seed;
    return params;
  }

  net::SimNetwork net_;
  Config config_;
  smr::Replica::ServiceFactory factory_;
  std::vector<net::NodeId> nodes_;
  std::unique_ptr<Generator> generator_;
  std::vector<std::unique_ptr<smr::Replica>> replicas_;
  bool crashed_ = false;
  std::thread crash_thread_;
};

// --- correctness checks ------------------------------------------------------

/// Live replicas must converge to byte-identical state (followers may
/// trail the leader by a few decisions, so poll briefly).
bool manifests_agree(Cluster& cluster) {
  const std::uint64_t deadline = mono_ns() + 5 * kSeconds;
  for (;;) {
    std::vector<Bytes> manifests;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (cluster.live(i)) manifests.push_back(cluster.replica(i).state_manifest());
    }
    if (std::all_of(manifests.begin(), manifests.end(),
                    [&](const Bytes& m) { return m == manifests.front(); })) {
      return true;
    }
    if (mono_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// Every key whose final value the client history determines holds that
/// value on every live replica; a key never written is absent. Returns
/// the number of keys checked, or -1 on a mismatch.
long read_back(Cluster& cluster, const OpStream& ops) {
  long checked = 0;
  const auto& keys = cluster.gen().keys();
  for (std::uint32_t k = 0; k < keys.size(); ++k) {
    const KeyTally& tally = keys[k];
    if (tally.puts > 0 && !tally.determined()) continue;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (!cluster.live(i)) continue;
      auto* kv = dynamic_cast<smr::KvService*>(&cluster.replica(i).service());
      if (kv == nullptr) return -1;
      const auto got = kv->versioned_get(ops.key_name(k));
      const bool ok = tally.puts == 0
                          ? !got.has_value()
                          : got.has_value() && got->value == ops.put_value(tally.last_stamp);
      if (!ok) return -1;
    }
    ++checked;
  }
  return checked;
}

// --- the traced window ---------------------------------------------------------

struct ThreadSums {
  double busy = 0, waiting = 0, max_busy = 0;
  int threads = 0;
};

/// Busy/waiting core fractions summed over the threads named `name` or,
/// when `name` ends in '-', over every thread it prefixes.
ThreadSums sum_threads(const std::vector<metrics::ThreadStateSnapshot>& snaps,
                       const std::string& name) {
  ThreadSums sums;
  const bool prefix = name.back() == '-';
  for (const auto& s : snaps) {
    if (prefix ? s.name.rfind(name, 0) != 0 : s.name != name) continue;
    sums.busy += s.busy_frac();
    sums.waiting += s.waiting_frac();
    sums.max_busy = std::max(sums.max_busy, s.busy_frac());
    ++sums.threads;
  }
  return sums;
}

/// Replica 0's counters, for deltas over the traced window.
struct LeaderCounters {
  std::uint64_t executed = 0, decided = 0, lease_reads = 0, lease_fallbacks = 0;
  std::uint64_t wakeups = 0, dropped = 0, cached = 0;
  metrics::NetCounters::Snapshot net;

  static LeaderCounters read(Cluster& cluster) {
    smr::Replica& r = cluster.replica(0);
    const smr::SharedState& s = r.shared();
    LeaderCounters c;
    c.executed = r.executed_requests();
    c.decided = r.decided_instances();
    c.lease_reads = s.lease_reads.load();
    c.lease_fallbacks = s.lease_read_fallbacks.load();
    c.wakeups = s.reply_wakeups.load();
    c.dropped = s.dropped_replies.load();
    c.cached = s.cached_replies.load();
    c.net = cluster.leader_net();
    return c;
  }
};

struct Trace {
  int window = -1;
  double cpu_us_untraced = 0, cpu_us_traced = 0, generator_busy = 0;
  std::map<std::string, double> gauges;  ///< mean depth over the window
  std::map<std::string, ThreadSums> threads;
  LeaderCounters before, after;
  std::uint64_t view_before = 0;

  /// Requests per decided instance on the leader (executed / decided).
  double reqs_per_batch() const {
    return ratio(static_cast<double>(after.executed - before.executed),
                 static_cast<double>(after.decided - before.decided));
  }
};

/// Both fixed-rate windows of the traced run (arrivals already warm).
Trace traced_windows(Cluster& cluster, const Timing& timing, std::vector<int>& counted) {
  Generator& gen = cluster.gen();
  Trace trace;
  {
    const CpuMark cpu;
    const int untraced = gen.open_window();
    gen.run_until(mono_ns() + timing.window_ns);
    gen.close_window();
    trace.cpu_us_untraced = cpu.us_per_op_since(gen.window(untraced).completed);
    counted.push_back(untraced);
  }

  smr::Replica& leader = cluster.replica(0);
  metrics::GaugeSampler sampler(10 * kMillis);
  sampler.add_gauge("request_queue", [&] { return static_cast<double>(leader.request_queue_size()); });
  sampler.add_gauge("proposal_queue", [&] { return static_cast<double>(leader.proposal_queue_size()); });
  sampler.add_gauge("dispatcher_queue", [&] { return static_cast<double>(leader.dispatcher_queue_size()); });
  sampler.add_gauge("decision_queue", [&] { return static_cast<double>(leader.decision_queue_size()); });
  sampler.add_gauge("window", [&] { return static_cast<double>(leader.window_in_use()); });
  sampler.start();
  metrics::ThreadRegistry::instance().reset_epoch();
  trace.before = LeaderCounters::read(cluster);
  trace.view_before = cluster.max_view();
  const CpuMark cpu;
  trace.window = gen.open_window();
  gen.run_until(mono_ns() + timing.window_ns);
  gen.close_window();
  const WindowStats& w = gen.window(trace.window);
  trace.cpu_us_traced = cpu.us_per_op_since(w.completed);
  trace.generator_busy = static_cast<double>(CpuMark{}.generator - cpu.generator) / 1e9 / w.seconds();
  trace.after = LeaderCounters::read(cluster);
  const auto snaps = metrics::ThreadRegistry::instance().snapshot_all();
  sampler.stop();
  for (const auto& g : sampler.results()) trace.gauges[g.name] = g.mean;
  for (const char* name : {"r0/ClientIO-", "r0/Batcher", "r0/Protocol", "r0/ReplicaIORcv-",
                           "r0/ReplicaIOSnd-", "r0/Replica", "r0/AffWorker-",
                           "r0/FailureDetector", "SimNetDelivery"}) {
    trace.threads[name] = sum_threads(snaps, name);
  }
  counted.push_back(trace.window);
  return trace;
}

std::vector<Metric> per_layer_metrics(const Trace& trace, const WindowStats& w,
                                      const ReplayCosts& replay, double failover_gap_ms,
                                      std::uint64_t view_changes) {
  const LeaderCounters& b = trace.before;
  const LeaderCounters& a = trace.after;
  const double wall_s = w.seconds();
  const double ops = static_cast<double>(w.completed);
  const double executed = static_cast<double>(a.executed - b.executed);
  const double consensus_rate = executed / wall_s;
  const double batch_rate = static_cast<double>(a.decided - b.decided) / wall_s;
  const double lease = static_cast<double>(a.lease_reads - b.lease_reads);
  const double fallbacks = static_cast<double>(a.lease_fallbacks - b.lease_fallbacks);
  const auto net = a.net - b.net;
  const auto gauge = [&](const char* name) { return trace.gauges.at(name); };
  const auto thread = [&](const char* name) { return trace.threads.at(name); };
  const ThreadSums executor = thread("r0/AffWorker-");
  std::vector<std::uint64_t> lag = w.lag_ns;
  std::sort(lag.begin(), lag.end());
  const Latency latency(w);

  return {
      {"client_io.busy", thread("r0/ClientIO-").busy, "cores"},
      {"client_io.waiting", thread("r0/ClientIO-").waiting, "cores"},
      {"client_io.decode_ns", replay.decode_ns, "ns"},
      {"client_io.reply_encode_ns", replay.reply_encode_ns, "ns"},
      {"request_gate.lease_served_frac", ratio(lease, lease + fallbacks), "fraction"},
      {"request_gate.retry_per_kop", ratio(1e3 * static_cast<double>(w.resends), ops), "1/kop"},
      {"request_gate.redirect_per_kop", ratio(1e3 * static_cast<double>(w.redirects), ops), "1/kop"},
      {"request_queue.depth", gauge("request_queue"), "count"},
      {"request_queue.wait_us", ratio(gauge("request_queue") * 1e6, consensus_rate), "us"},
      {"proposal_queue.depth", gauge("proposal_queue"), "count"},
      {"proposal_queue.wait_us", ratio(gauge("proposal_queue") * 1e6, batch_rate), "us"},
      {"dispatcher_queue.depth", gauge("dispatcher_queue"), "count"},
      {"batcher.busy", thread("r0/Batcher").busy, "cores"},
      {"batcher.reqs_per_batch", trace.reqs_per_batch(), "count"},
      {"batcher.add_ns", replay.batch_add_ns, "ns"},
      {"protocol.busy", thread("r0/Protocol").busy, "cores"},
      {"protocol.window_in_use", gauge("window"), "count"},
      {"protocol.engine_ns_per_instance", replay.engine_ns_per_instance, "ns"},
      {"replica_io.busy", thread("r0/ReplicaIORcv-").busy + thread("r0/ReplicaIOSnd-").busy, "cores"},
      {"replica_io.pkts_per_op", ratio(static_cast<double>(net.packets_in + net.packets_out), ops), "count"},
      {"replica_io.bytes_per_op", ratio(static_cast<double>(net.bytes_in + net.bytes_out), ops), "B"},
      {"decision_queue.depth", gauge("decision_queue"), "count"},
      {"decision_queue.wait_us", ratio(gauge("decision_queue") * 1e6, batch_rate), "us"},
      {"service_manager.busy", thread("r0/Replica").busy, "cores"},
      {"executor.busy", executor.busy, "cores"},
      {"executor.waiting", executor.waiting, "cores"},
      {"executor.imbalance", ratio(executor.max_busy, ratio(executor.busy, executor.threads)), "ratio"},
      {"service.execute_ns", replay.execute_ns, "ns"},
      {"service.classify_ns", replay.classify_ns, "ns"},
      {"reply_path.replies_per_wakeup", ratio(executed, static_cast<double>(a.wakeups - b.wakeups)), "count"},
      {"reply_path.dropped", static_cast<double>(a.dropped - b.dropped), "count"},
      {"reply_path.cached", static_cast<double>(a.cached - b.cached), "count"},
      {"storage.append_ns", replay.append_ns, "ns"},
      {"storage.sync_p50_ms", replay.sync_p50_ms, "ms"},
      {"failover.view_changes", static_cast<double>(view_changes), "count"},
      {"failover.gap_ms", failover_gap_ms, "ms"},
      {"failure_detector.busy", thread("r0/FailureDetector").busy, "cores"},
      {"simnet.delivery_busy", thread("SimNetDelivery").busy, "cores"},
      {"generator.lag_p99_ms", percentile(lag, 99) / 1e6, "ms"},
      {"generator.busy", trace.generator_busy, "cores"},
      {"trace.overhead_pct", 100.0 * (ratio(trace.cpu_us_traced, trace.cpu_us_untraced) - 1.0), "%"},
      {"tail.p99_ms", latency.ms(99), "ms"},
      {"tail.p999_ms", latency.ms(99.9), "ms"},
      {"tail.samples", static_cast<double>(latency.sorted.size()), "count"},
      {"tail.max_pct", latency.max_supported_pct(), "%"},
  };
}

// --- one workload --------------------------------------------------------------

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// The untraced measurements of one round.
struct Round {
  double setup_s = 0, sat_rps = 0, p50_ms = 0, p90_ms = 0, cpu_us_per_op = 0;
  std::string latency_json;
};

RunResult run_workload(const Workload& workload, const Args& args) {
  const Timing timing = timing_for(args);
  const OpStream ops(workload, args.seed);
  const double rate = workload.rate_per_s * timing.rate_scale;
  const std::string data_root = args.data_dir + "/" + workload.name;
  std::filesystem::remove_all(data_root);

  RunResult result;
  std::vector<Round> rounds;
  double failover_gap_ms = 0;
  long keys_checked = 0;
  for (int r = 0; r < timing.rounds; ++r) {
    const auto problem = [&](const std::string& what) {
      result.correct = false;
      result.problems.push_back("round " + std::to_string(r) + ": " + what);
    };
    metrics::ThreadRegistry::instance().clear();  // trace this cluster's threads only
    auto cluster = std::make_unique<Cluster>(workload, ops, args.seed,
                                             data_root + "/round-" + std::to_string(r));
    Round round;
    round.setup_s = cluster->boot();
    Generator& gen = cluster->gen();
    const auto run_for = [&](std::uint64_t ns) { gen.run_until(mono_ns() + ns); };
    const std::uint64_t arrival_seed = args.seed * 1000 + static_cast<std::uint64_t>(r);
    std::vector<int> counted;  // windows whose requests count as attempted

    int saturation = -1, fixed = -1;
    Trace trace;
    if (!args.trace) {
      gen.start_closed(Stream::kSaturation, kClosedClients);
      run_for(timing.warmup_ns);
      saturation = gen.open_window();
      run_for(timing.window_ns);
      gen.close_window();
      gen.stop_arrivals();
      gen.drain(kFailAfterNs);
      counted.push_back(saturation);

      gen.start_open(Stream::kFixedRate, rate, arrival_seed);
      run_for(timing.warmup_ns);
      const CpuMark cpu;
      fixed = gen.open_window();
      run_for(timing.window_ns);
      gen.close_window();
      round.cpu_us_per_op = cpu.us_per_op_since(gen.window(fixed).completed);
      counted.push_back(fixed);
    } else {
      gen.start_open(Stream::kFixedRate, rate, arrival_seed);
      run_for(timing.warmup_ns);
      trace = traced_windows(*cluster, timing, counted);
    }

    // Failover segment (last round): arrivals continue while the leader
    // stops.
    if (workload.crash_leader && r + 1 == timing.rounds) {
      run_for(timing.crash_after_ns);
      const int segment = gen.open_window();
      const std::uint64_t crash_ns = mono_ns();
      gen.mark_crash(crash_ns);
      cluster->crash_leader();
      run_for(timing.failover_ns - timing.crash_after_ns);
      gen.close_window();
      counted.push_back(segment);
      if (gen.first_ok_after_crash_ns() == 0) {
        problem("failover: no OK reply after the leader stopped");
      } else {
        failover_gap_ms = static_cast<double>(gen.first_ok_after_crash_ns() - crash_ns) / 1e6;
        if (failover_gap_ms >= 1000) problem("failover: a gap of " + fmt(failover_gap_ms) + " ms");
      }
    }
    gen.stop_arrivals();
    if (!gen.drain(kFailAfterNs)) gen.fail_outstanding();
    cluster->join_crash();

    // Checks.
    for (int w : counted) {
      result.attempted += gen.window(w).attempted;
      result.failed += gen.window(w).failed;
    }
    if (gen.bad_replies() > 0) {
      problem(std::to_string(gen.bad_replies()) + " replies failed to decode or validate");
    }
    if (!manifests_agree(*cluster)) problem("live replicas' state manifests differ");
    if (ops.kv()) {
      const long checked = read_back(*cluster, ops);
      if (checked <= 0) problem("read-back: a key does not hold its last acknowledged PUT");
      keys_checked += std::max(checked, 0L);
    }

    if (!args.trace) {
      const WindowStats& sat = gen.window(saturation);
      const Latency latency(gen.window(fixed));
      round.sat_rps = ratio(static_cast<double>(sat.completed), sat.seconds());
      round.p50_ms = latency.ms(50);
      round.p90_ms = latency.ms(90);
      round.latency_json = latency.json();
      rounds.push_back(round);
    } else {
      const std::uint64_t view_changes = cluster->max_view() - trace.view_before;
      const WindowStats traced = gen.window(trace.window);
      cluster.reset();  // the replay runs alone on the host
      const ReplayCosts replay =
          replay_layers(workload, ops, trace.reqs_per_batch(), data_root + "/replay");
      result.metrics = per_layer_metrics(trace, traced, replay, failover_gap_ms, view_changes);
      result.detail += ", \"latency\": " + Latency(traced).json() +
                       ", \"cpu_us_per_op_untraced\": " + fmt(trace.cpu_us_untraced) +
                       ", \"cpu_us_per_op_traced\": " + fmt(trace.cpu_us_traced);
    }
  }
  std::filesystem::remove_all(data_root);

  if (!args.trace) {
    const auto median_of = [&](double Round::*field) {
      std::vector<double> values;
      for (const auto& round : rounds) values.push_back(round.*field);
      return median(values);
    };
    result.metrics = {
        {"setup_s", median_of(&Round::setup_s), "s"},
        {"sat_rps", median_of(&Round::sat_rps), "req/s"},
        {"p50_ms", median_of(&Round::p50_ms), "ms"},
        {"p90_ms", median_of(&Round::p90_ms), "ms"},
        {"cpu_us_per_op", median_of(&Round::cpu_us_per_op), "us"},
    };
    result.detail += ", \"rounds\": [";
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      const Round& round = rounds[i];
      result.detail += std::string(i ? ", " : "") + "{\"setup_s\": " + fmt(round.setup_s) +
                       ", \"sat_rps\": " + fmt(round.sat_rps) + ", \"cpu_us_per_op\": " +
                       fmt(round.cpu_us_per_op) + ", \"latency\": " + round.latency_json + "}";
    }
    result.detail += "]";
  }
  std::string overrides;
  for (const auto& [key, value] : workload.overrides) {
    overrides += (overrides.empty() ? "\"" : ", \"") + key + "\": \"" + value + "\"";
  }
  result.detail = "\"workload\": \"" + workload.name + "\", \"seed\": " +
                  std::to_string(args.seed) + ", \"trace\": " + (args.trace ? "1" : "0") +
                  ", \"config_overrides\": {" + overrides + "}, \"closed_clients\": " +
                  std::to_string(kClosedClients) + ", \"open_pool\": " +
                  std::to_string(kOpenPool) + ", \"retry_ms\": " + fmt(kRetryNs / 1e6) +
                  ", \"fail_after_ms\": " + fmt(kFailAfterNs / 1e6) +
                  ", \"rate_per_s\": " + fmt(rate) + ", \"rounds_run\": " +
                  std::to_string(timing.rounds) + ", \"warmup_s\": " +
                  fmt(static_cast<double>(timing.warmup_ns) * 1e-9) + ", \"window_s\": " +
                  fmt(static_cast<double>(timing.window_ns) * 1e-9) + ", \"failover_gap_ms\": " +
                  fmt(failover_gap_ms) + ", \"keys_read_back\": " + std::to_string(keys_checked) +
                  result.detail;
  return result;
}

void print_run(const Workload& workload, const Args& args, const RunResult& r) {
  std::printf("== %s  seed %llu  seconds %g  trace %d ==\n", workload.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  for (const auto& m : r.metrics) {
    std::printf("  %-34s %16s %s\n", m.name.c_str(), fmt(m.value).c_str(), m.unit.c_str());
  }
  std::printf("  attempted %llu  failed %llu\n  detail {%s}\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), r.detail.c_str());
  for (const auto& p : r.problems) std::printf("  CHECK FAILED: %s\n", p.c_str());
  std::fflush(stdout);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--data-dir") {
      args.data_dir = value();
    } else if (flag == "--detail") {
      args.detail = value();
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload != "all" && find_workload(args.workload) == nullptr) {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return args;
}

int run(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "bench_e2e: %s\nusage: bench_e2e --workload NAME|all --seed N --seconds S "
                 "--trace 0|1 [--data-dir DIR] [--detail FILE] [--smoke]\n",
                 e.what());
    return 2;
  }

  std::vector<const Workload*> selected;
  if (args.workload == "all") {
    for (const auto& w : workloads()) selected.push_back(&w);
  } else {
    selected.push_back(find_workload(args.workload));
  }

  // With several workloads the result line names each metric
  // <workload>.<metric> and sums the counts.
  RunResult total;
  std::string details;
  for (const Workload* w : selected) {
    RunResult r = run_workload(*w, args);
    print_run(*w, args, r);
    total.correct = total.correct && r.correct;
    total.attempted += r.attempted;
    total.failed += r.failed;
    for (auto& m : r.metrics) {
      if (selected.size() > 1) m.name = w->name + "." + m.name;
      total.metrics.push_back(std::move(m));
    }
    details += (details.empty() ? "{" : ", {") + r.detail + "}";
  }
  if (!args.detail.empty()) {
    std::ofstream out(args.detail);
    out << "{\"runs\": [" << details << "]}\n";
    if (!out) throw std::runtime_error("cannot write " + args.detail);
  }
  std::printf("%s\n",
              result_json(total.correct, total.attempted, total.failed, total.metrics).c_str());
  return total.correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
