// Figure 7 — "JPaxos CPU usage and total blocked time, edel cluster":
// per-replica CPU utilisation and contention vs cores on the 8-core nodes.
//
// Paper shape: for a 7x speedup the CPU grows only ~3x (300% of one core
// at 8 cores); aggregate blocked time stays under 20% of one core.
#include "harness.hpp"
#include "sim/model.hpp"

using namespace mcsmr;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, "fig07");
  bench::BenchReport report(args, "Figure 7: edel CPU usage and total blocked time vs cores");

  const auto model = bench::edel_model();

  for (int n : {3, 5}) {
    bench::print_header("Figure 7 (n=" + std::to_string(n) + ", edel) [model]");
    std::printf("  %-6s %10s %14s %16s %12s\n", "cores", "speedup", "CPU (%1core)",
                "blocked (%1core)", "CPU/speedup");
    sim::ModelInput input;
    input.n = n;
    const double x1 = model.evaluate(input).throughput_rps;
    const std::string tag = "n=" + std::to_string(n);
    for (int cores = 1; cores <= 8; ++cores) {
      input.cores = cores;
      const auto out = model.evaluate(input);
      const double speedup = out.throughput_rps / x1;
      std::printf("  %-6d %10.2f %14.0f %16.0f %12.2f\n", cores, speedup,
                  100.0 * out.total_cpu_cores, 100.0 * out.total_blocked_cores,
                  out.total_cpu_cores / (out.total_cpu_cores > 0 ? speedup : 1));
      report.series(tag + " speedup [model]", "model", "speedup", "x", "cores")
          .config("n", n)
          .config("cluster", "edel")
          .point(cores, speedup);
      report.series(tag + " CPU [model]", "model", "cpu", "percent_one_core", "cores")
          .config("n", n)
          .config("cluster", "edel")
          .point(cores, 100.0 * out.total_cpu_cores);
      report.series(tag + " blocked [model]", "model", "blocked", "percent_one_core", "cores")
          .config("n", n)
          .config("cluster", "edel")
          .point(cores, 100.0 * out.total_blocked_cores);
    }
  }
  std::printf("\n  (paper: CPU grows ~3x for a ~7x speedup — more cores let threads run\n"
              "   without context-switch/caching overhead; blocked stays <20%%)\n");
  return report.finish();
}
