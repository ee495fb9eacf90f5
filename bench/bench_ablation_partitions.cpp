// Ablation: partitioned SMR pipelines (compartmentalization, Whittaker et
// al.) on the full threaded stack over the SimNet transport.
//
// One replica normally runs ONE Batcher -> Protocol -> ServiceManager
// chain; --partitions N shards it into N pipelines behind the request
// router. This driver sweeps
//
//   * partitions     — 1 (the paper's replica) / 2 / 4 pipelines;
//   * conflict rate  — the swarm's kv workload sends PUTs; a conflict hits
//                      one hot key, whose partition serializes them (100%
//                      = every request lands on one pipeline: partitioning
//                      cannot help, routing overhead is what remains);
//   * workers        — the affinity executor's pool size inside EACH
//                      pipeline (1 = serial executor), showing the two
//                      scaling axes compose.
//
// The service is an io-bound KvService (50 us off-CPU per request,
// modeling fsync/RPC wait) so pipelines overlap even on a small host —
// the same device bench_ablation_executor uses for its worker sweep.
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "harness.hpp"
#include "report.hpp"
#include "smr/service.hpp"

using namespace mcsmr;

namespace {

/// KvService with per-request off-CPU work applied outside the state
/// lock; deterministic (the wait never touches state). The hook is
/// execute_at so both executors pay it: the serial path arrives via
/// execute(), affinity workers call execute_at directly.
class IoBoundKvService : public smr::KvService {
 public:
  explicit IoBoundKvService(std::uint64_t sleep_ns) : sleep_ns_(sleep_ns) {}

  Bytes execute_at(const Bytes& request, std::uint64_t instance) override {
    if (sleep_ns_ > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns_));
    return KvService::execute_at(request, instance);
  }

 private:
  const std::uint64_t sleep_ns_;
};

constexpr std::uint64_t kServiceSleepNs = 50'000;  // 50 us per request

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::BenchArgs::parse(argc, argv, "ablation_partitions");
  bench::BenchReport report(args, "Partitioned pipelines: throughput vs partitions x "
                                  "conflict rate x executor workers (io-bound KvService)");

  std::vector<int> partition_counts = bench::smoke_thin(args, std::vector<int>{1, 2, 4});
  std::vector<int> conflicts = bench::smoke_thin(args, std::vector<int>{0, 50, 100});
  std::vector<int> worker_counts = args.smoke ? std::vector<int>{1} : std::vector<int>{1, 4};

  bench::print_header("Partitioned pipelines (io-bound kv, sleep 50us/req)");
  std::printf("  %10s %9s %8s %14s %10s\n", "partitions", "conflict", "workers",
              "throughput", "p50 lat");

  for (int workers : worker_counts) {
    for (int conflict : conflicts) {
      auto& series = report
                         .series("kv conflict=" + std::to_string(conflict) +
                                     "% workers=" + std::to_string(workers),
                                 "real", "throughput", "req/s", "partitions")
                         .config("conflict_pct", conflict)
                         .config("workers", workers)
                         .config("service_sleep_ns", static_cast<double>(kServiceSleepNs))
                         .config("workload", "kv");
      for (int partitions : partition_counts) {
        bench::RealRunParams params;
        params.net.one_way_ns = 20'000;  // fast LAN; no NIC budget: the
        params.net.node_pps = 0;         // pipelines are the bottleneck
        params.net.node_bandwidth_bps = 0;
        params.config.num_partitions = static_cast<std::uint32_t>(partitions);
        if (workers > 1) {
          params.config.executor_impl = ExecutorImpl::kAffinity;
          params.config.executor_workers = static_cast<std::size_t>(workers);
        }
        params.service_factory = [] {
          return std::make_unique<IoBoundKvService>(kServiceSleepNs);
        };
        params.workload = smr::ClientSwarm::Workload::kKv;
        params.kv_keys = args.kv_keys > 0 ? args.kv_keys : 4096;
        params.kv_conflict_pct = conflict;
        params.swarm_workers = 2;
        params.clients_per_worker = 50;
        params.warmup_ns = 400 * kMillis;
        params.measure_ns = 1500 * kMillis;

        // The sweep owns the pipeline-shape knobs; scrub them from the
        // shared flags so run_real does not override the cell.
        bench::BenchArgs cell = args;
        cell.workload.clear();
        cell.kv_conflict_pct = -1;
        for (const char* key : {"num_partitions", "executor_impl", "executor_workers"}) {
          cell.set.erase(key);
        }
        const auto result = bench::run_real(params, cell);

        series.point(partitions, result.throughput_rps, result.throughput_stderr);
        std::printf("  %10d %8d%% %8d %11.0f/s %8.0fus\n", partitions, conflict, workers,
                    result.throughput_rps, result.client_latency_p50_us);
      }
    }
  }

  std::printf("\n  0%% conflict: independent keys spread over every pipeline — throughput\n"
              "  should scale with partitions; 100%%: one hot key serializes on a single\n"
              "  pipeline and partitioning cannot help. workers>1 parallelizes INSIDE each\n"
              "  pipeline; the two axes compose.\n");

  return report.finish();
}
