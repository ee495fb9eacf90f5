// Read scaling: the leader-lease local read path vs full consensus.
//
// With Config::read_path = consensus (the paper's default) every GET is
// ordered through a Paxos instance like a write. With read_path = lease
// the leader answers read-only requests locally — no instance, no
// Batcher, no peer traffic — under a quorum-granted lease (ReadIndex-
// style: wait for execution to reach the proposal frontier, re-check the
// lease, read; see src/smr/request_gate.hpp).
//
// This driver sweeps the GET share of a kv workload (50/90/95/99/100%)
// and runs each mix twice, once per read path. The lease series should
// pull away as the mix becomes read-heavy — every local read is a Paxos
// instance (and its quorum round) that never happened — and converge to
// the consensus series at write-heavy mixes where the fast path rarely
// fires. A third series records the fraction of reads the lease path
// actually served (lease_reads / (lease_reads + fallbacks)) so a
// regression that silently pushes reads back to consensus is visible in
// the JSON trajectory, not just as a throughput dip.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "harness.hpp"
#include "report.hpp"
#include "smr/service.hpp"

using namespace mcsmr;

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::BenchArgs::parse(argc, argv, "read_scaling");
  bench::BenchReport report(args,
                            "Read scaling: lease local reads vs consensus reads "
                            "(kv workload, GET-share sweep)");

  std::vector<int> read_mixes =
      bench::smoke_thin(args, std::vector<int>{50, 90, 95, 99, 100});
  const std::vector<const char*> paths = {"consensus", "lease"};

  bench::print_header("Read scaling (kv workload, GET-share sweep)");
  std::printf("  %9s %9s %14s %10s %12s\n", "read-path", "reads", "throughput", "p50 lat",
              "lease-served");

  for (const char* path : paths) {
    auto& series = report.series(std::string(path) + " reads", "real", "throughput",
                                 "req/s", "read_pct")
                       .config("read_path", path)
                       .config("workload", "kv");
    bench::BenchSeries* served = nullptr;
    if (std::string(path) == "lease") {
      served = &report
                    .series("lease served fraction", "real", "lease_served", "fraction",
                            "read_pct")
                    .config("read_path", path);
    }
    for (int read_pct : read_mixes) {
      bench::RealRunParams params;
      params.net.one_way_ns = 20'000;  // fast LAN; the protocol path, not
      params.net.node_pps = 0;         // the NIC, is what the sweep measures
      params.net.node_bandwidth_bps = 0;
      params.config.apply_overrides({{"read_path", path}});
      params.service_factory = [] { return std::make_unique<smr::KvService>(); };
      params.workload = smr::ClientSwarm::Workload::kKv;
      params.kv_keys = args.kv_keys > 0 ? args.kv_keys : 1024;
      params.read_pct = read_pct;
      params.swarm_workers = 2;
      params.clients_per_worker = 50;
      params.warmup_ns = 400 * kMillis;
      params.measure_ns = 1500 * kMillis;

      // The sweep owns the read knobs; scrub them from the shared flags
      // so run_real does not override the cell.
      bench::BenchArgs cell = args;
      cell.read_pct = -1;
      cell.set.erase("read_path");
      cell.workload.clear();
      const auto result = bench::run_real(params, cell);

      const std::uint64_t attempts = result.lease_reads + result.lease_read_fallbacks;
      const double served_frac =
          attempts == 0 ? 0.0
                        : static_cast<double>(result.lease_reads) /
                              static_cast<double>(attempts);
      series.point(read_pct, result.throughput_rps, result.throughput_stderr);
      if (served != nullptr) served->point(read_pct, served_frac);
      std::printf("  %9s %8d%% %11.0f/s %8.0fus %11.0f%%\n", path, read_pct,
                  result.throughput_rps, result.client_latency_p50_us, 100 * served_frac);
    }
  }

  std::printf("\n  Consensus orders every GET through a Paxos instance; lease answers\n"
              "  them on the leader under a quorum-granted lease. The gap should widen\n"
              "  with the read share and vanish at write-heavy mixes.\n");

  return report.finish();
}
