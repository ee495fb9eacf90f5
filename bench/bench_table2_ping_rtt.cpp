// Table II — "Ping times between nodes, while idle and during an
// experiment" (WND=35, BSZ=1300, n=3).
//
// REAL run; the probes go through SimNet's per-node NIC reservations the
// same way all traffic does (the paper's ping likewise bypasses the
// application and measures the kernel packet path). Paper shape: ~0.06 ms
// everywhere except to/from the LEADER, which inflates to ~2.5 ms because
// only its NIC runs at the packet budget.
#include "harness.hpp"

using namespace mcsmr;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, "table2");
  bench::BenchReport report(args, "Table II: ping RTT idle vs under load");

  bench::print_header("Table II [real]: RTT probes (WND=35, BSZ=1300, n=3)");

  bench::RealRunParams params;
  params.config.window_size = 35;
  bench::apply_scaled_nic_regime(params, args);
  const auto result = bench::run_real(params, args);

  std::printf("  %-28s %12s\n", "link", "RTT (ms)");
  std::printf("  %-28s %12.3f\n", "idle: any <-> any", result.idle_rtt_ns / 1e6);
  std::printf("  %-28s %12.3f\n", "experiment: other <-> other",
              result.other_rtt_during_ns / 1e6);
  std::printf("  %-28s %12.3f\n", "experiment: leader <-> any",
              result.leader_rtt_during_ns / 1e6);
  std::printf("\n  throughput during probes: %.0f req/s\n", result.throughput_rps);
  // The model's own error: how long after its due time SimNet's delivery
  // thread handed each message over (not part of the paper's table).
  const double late_p50_us = static_cast<double>(result.simnet_lateness.percentile(50)) / 1e3;
  const double late_p99_us = static_cast<double>(result.simnet_lateness.percentile(99)) / 1e3;
  std::printf("  SimNet delivery lateness: p50 %.1f us, p99 %.1f us (%llu messages)\n",
              late_p50_us, late_p99_us,
              static_cast<unsigned long long>(result.simnet_lateness.count()));
  std::printf("  (paper: idle 0.06 ms; bystanders ~0.06-0.08 ms; leader ~2.5 ms —\n"
              "   the RTT inflation isolates the bottleneck to the leader's NIC)\n");

  auto& rtt = report.series("ping RTT [real]", "real", "rtt", "ms", "link");
  rtt.config("WND", 35).config("BSZ", 1300).config("n", 3).config("node_pps",
                                                                  params.net.node_pps);
  rtt.labeled_point("idle: any <-> any", result.idle_rtt_ns / 1e6);
  rtt.labeled_point("experiment: other <-> other", result.other_rtt_during_ns / 1e6);
  rtt.labeled_point("experiment: leader <-> any", result.leader_rtt_during_ns / 1e6);
  report.series("throughput during probes [real]", "real", "throughput", "req/s", "WND")
      .point(35, result.throughput_rps, result.throughput_stderr);
  report.series("SimNet delivery lateness [real]", "real", "latency", "ms", "percentile")
      .labeled_point("p50", late_p50_us / 1e3)
      .labeled_point("p99", late_p99_us / 1e3);
  return report.finish();
}
