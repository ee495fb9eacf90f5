// Figure 6 — "JPaxos performance with increasing number of cores, edel
// cluster" (8-core Xeons): throughput & speedup, n=3 and n=5.
//
// Paper shape: near-linear speedup reaching ~7x at 8 cores (~80K req/s for
// n=3) WITHOUT hitting the network limit — the curve is still climbing at
// the node's core count.
#include "harness.hpp"
#include "sim/model.hpp"

using namespace mcsmr;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, "fig06");
  bench::BenchReport report(args,
                            "Figure 6: throughput & speedup vs cores (edel, 8-core nodes)");

  const auto model = bench::edel_model();
  bench::print_header("Figure 6: throughput & speedup vs cores (edel, 8-core nodes)");
  std::printf("  %-6s | %14s %8s | %14s %8s | %s\n", "cores", "n=3 req/s", "speedup",
              "n=5 req/s", "speedup", "bottleneck(n=3) [model]");
  sim::ModelInput n3;
  sim::ModelInput n5;
  n5.n = 5;
  const double x1_n3 = model.evaluate(n3).throughput_rps;
  const double x1_n5 = model.evaluate(n5).throughput_rps;
  for (int cores = 1; cores <= 8; ++cores) {
    n3.cores = cores;
    n5.cores = cores;
    const auto out3 = model.evaluate(n3);
    const auto out5 = model.evaluate(n5);
    std::printf("  %-6d | %14.0f %8.2f | %14.0f %8.2f | %s\n", cores, out3.throughput_rps,
                out3.throughput_rps / x1_n3, out5.throughput_rps,
                out5.throughput_rps / x1_n5, out3.bottleneck.c_str());
    report.series("n=3 throughput [model]", "model", "throughput", "req/s", "cores")
        .config("n", 3)
        .config("cluster", "edel")
        .point(cores, out3.throughput_rps);
    report.series("n=5 throughput [model]", "model", "throughput", "req/s", "cores")
        .config("n", 5)
        .config("cluster", "edel")
        .point(cores, out5.throughput_rps);
    report.series("n=3 speedup [model]", "model", "speedup", "x", "cores")
        .config("n", 3)
        .config("cluster", "edel")
        .point(cores, out3.throughput_rps / x1_n3);
    report.series("n=5 speedup [model]", "model", "speedup", "x", "cores")
        .config("n", 5)
        .config("cluster", "edel")
        .point(cores, out5.throughput_rps / x1_n5);
  }
  std::printf("\n  (paper: ~80K req/s and 7x speedup at 8 cores, network NOT saturated —\n"
              "   the bottleneck column should stay 'cpu' through 8 cores)\n");
  return report.finish();
}
