// Ablation: serial vs affinity execution (§V-D extension).
//
// The paper's "Replica" thread applies decided batches serially — fine for
// NullService, a ceiling once the service does real work. This driver
// feeds identical decided sequences of KvService PUTs through the serial
// baseline and through the AffinityExecutor (early-scheduled per-key
// worker affinity, no per-batch barrier — smr/executor.hpp), sweeping
//
//   * workers        — the executor_workers pool size;
//   * conflict rate  — fraction of requests hitting one hot key (0% =
//                      every key unique, 100% = a conflict storm that the
//                      scheduler must fully serialize);
//   * service work   — io-bound (50 us off-CPU per request, modeling a
//                      service that waits on fsync/RPC; parallelism helps
//                      even on one core) and cpu-bound (20 us burned on
//                      the executing thread; parallelism helps up to the
//                      host's core count).
//
// Every cell executes the same deterministic request stream, so the
// serial and affinity series are directly comparable.
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/busy_work.hpp"
#include "common/clock.hpp"
#include "common/config.hpp"
#include "report.hpp"
#include "smr/executor.hpp"
#include "smr/service.hpp"

using namespace mcsmr;

namespace {

/// KvService with per-request "real work" applied before the state
/// access, outside any lock. Deterministic: the work never touches state.
/// The hook is execute_at so every execution path pays it: the serial
/// path arrives via execute(), affinity workers call execute_at directly
/// with the decided instance.
class WorkingKvService : public smr::KvService {
 public:
  WorkingKvService(std::uint64_t spin_ns, std::uint64_t sleep_ns)
      : spin_ns_(spin_ns), sleep_ns_(sleep_ns) {}

  Bytes execute_at(const Bytes& request, std::uint64_t instance) override {
    if (sleep_ns_ > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns_));
    if (spin_ns_ > 0) burn_cpu_ns(spin_ns_);
    return KvService::execute_at(request, instance);
  }

 private:
  const std::uint64_t spin_ns_;
  const std::uint64_t sleep_ns_;
};

/// Reply sink: these cells measure execution, not the reply path.
class DropReplyIo : public smr::ClientIo {
 public:
  void start() override {}
  void stop() override {}
  void send_reply(paxos::ClientId, paxos::RequestSeq, smr::ReplyStatus,
                  const Bytes&) override {}
};

/// splitmix64: deterministic per-request coin for the conflict draw.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct Workload {
  std::vector<paxos::Request> requests;
};

/// `conflict_pct` of the PUTs write one hot key; the rest write unique
/// keys. Same seed => same stream, so every cell replays identical input.
Workload make_workload(int n, int conflict_pct, std::uint64_t seed) {
  Workload workload;
  workload.requests.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const bool hot =
        static_cast<int>(mix(seed + static_cast<std::uint64_t>(i)) % 100) < conflict_pct;
    const std::string key = hot ? "hot" : "k" + std::to_string(i);
    workload.requests.push_back(
        {/*client_id=*/static_cast<std::uint64_t>(i) + 1, /*seq=*/1,
         smr::KvService::make_put(key, Bytes{static_cast<std::uint8_t>(i)})});
  }
  return workload;
}

/// One measurement cell: the whole stream, in decided batches of `batch`;
/// returns requests per second. `workers == 0` runs the serial baseline.
double run_cell(const Workload& workload, std::size_t workers, std::uint64_t spin_ns,
                std::uint64_t sleep_ns, std::size_t batch) {
  WorkingKvService service(spin_ns, sleep_ns);
  std::uint64_t wall_ns = 0;
  if (workers == 0) {
    const std::uint64_t t0 = mono_ns();
    for (const auto& request : workload.requests) (void)service.execute(request.payload);
    wall_ns = mono_ns() - t0;
  } else {
    Config config;
    config.executor_impl = ExecutorImpl::kAffinity;
    config.executor_workers = workers;
    smr::ReplyCache reply_cache;
    DropReplyIo io;
    smr::SharedState shared(1);
    smr::AffinityExecutor executor(config, service, reply_cache, io, shared);
    executor.start();
    // Classification is batch-build work under this executor (the Batcher
    // runs it once on the leader, off the execution path), so footprints
    // are prepared outside the timed window; the window covers submit +
    // execution + frontier tokens, exactly the ServiceManager's share.
    struct Chunk {
      std::vector<paxos::Request> requests;
      std::vector<smr::RequestClass> classes;
    };
    std::vector<Chunk> chunks;
    for (std::size_t base = 0; base < workload.requests.size(); base += batch) {
      Chunk chunk;
      const std::size_t end = std::min(workload.requests.size(), base + batch);
      for (std::size_t i = base; i < end; ++i) {
        chunk.requests.push_back(workload.requests[i]);
        chunk.classes.push_back(service.classify(workload.requests[i].payload));
      }
      chunks.push_back(std::move(chunk));
    }
    const std::uint64_t t0 = mono_ns();
    paxos::InstanceId instance = 0;
    for (auto& chunk : chunks) {
      executor.submit(instance, std::move(chunk.requests), std::move(chunk.classes));
      executor.publish_frontier(instance);
      ++instance;
    }
    executor.quiesce();  // barrier: every submitted request has executed
    wall_ns = mono_ns() - t0;
    executor.resume();
    executor.stop();
  }
  return static_cast<double>(workload.requests.size()) / (static_cast<double>(wall_ns) * 1e-9);
}

}  // namespace

int main(int argc, char** argv) {
  auto args = mcsmr::bench::BenchArgs::parse(argc, argv, "ablation_executor");
  mcsmr::bench::BenchReport report(
      args, "Ablation: serial vs affinity execution (ServiceManager)");

  const int n = args.smoke ? 800 : 4000;
  const std::size_t batch = 64;  // requests per decided batch fed to the executor
  constexpr std::uint64_t kIoSleepNs = 50'000;  // io-bound: 50 us off-CPU
  constexpr std::uint64_t kCpuSpinNs = 20'000;  // cpu-bound: 20 us burned

  std::vector<std::size_t> worker_sweep = args.smoke ? std::vector<std::size_t>{1, 4}
                                                     : std::vector<std::size_t>{1, 2, 4, 8};
  // --set executor_impl=... / executor_workers=N restricts the sweep to
  // that setting (the values already passed Config's validation).
  Config pinned;
  pinned.apply_overrides(args.set);
  if (args.set.count("executor_workers") != 0) worker_sweep = {pinned.executor_workers};
  const bool pins_impl = args.set.count("executor_impl") != 0;
  const bool run_serial = !pins_impl || pinned.executor_impl == ExecutorImpl::kSerial;
  const bool run_affinity = !pins_impl || pinned.executor_impl == ExecutorImpl::kAffinity;

  report.env("requests", static_cast<std::int64_t>(n));
  report.env("batch", static_cast<std::int64_t>(batch));
  report.env("io_sleep_ns", kIoSleepNs);
  report.env("cpu_spin_ns", kCpuSpinNs);

  struct Mode {
    const char* name;
    std::uint64_t spin_ns;
    std::uint64_t sleep_ns;
  };
  const std::vector<Mode> modes = {{"io-bound", 0, kIoSleepNs}, {"cpu-bound", kCpuSpinNs, 0}};
  const std::vector<int> conflict_rates = args.smoke ? std::vector<int>{0, 100}
                                                     : std::vector<int>{0, 50, 100};

  std::printf("\n=== Ablation: serial vs affinity execution (KvService PUTs) ===\n");
  std::printf("  %-10s %9s %-9s %8s | %12s %12s\n", "work", "conflict", "impl", "workers",
              "req/s", "vs serial");
  for (const auto& mode : modes) {
    for (const int conflict : conflict_rates) {
      const std::string tag =
          std::string(mode.name) + " conflict=" + std::to_string(conflict) + "%";
      double serial_rps = 0;
      for (int rep = 0; rep < args.repeat; ++rep) {
        const Workload workload =
            make_workload(n, conflict, args.seed + static_cast<std::uint64_t>(rep));
        // "-" in the ratio column when the serial baseline was not run.
        const auto ratio_str = [&](double rps, char* buf, std::size_t len) {
          if (serial_rps > 0) {
            std::snprintf(buf, len, "%.2fx", rps / serial_rps);
          } else {
            std::snprintf(buf, len, "-");
          }
        };
        if (run_serial) {
          serial_rps = run_cell(workload, 0, mode.spin_ns, mode.sleep_ns, batch);
          report.series("serial " + tag + " [real]", "real", "throughput", "req/s", "workers")
              .config("executor_impl", "serial")
              .config("conflict_pct", conflict)
              .config("work", mode.name)
              .point(1, serial_rps);
          if (rep == args.repeat - 1) {
            std::printf("  %-10s %8d%% %-9s %8s | %12.0f %12s\n", mode.name, conflict,
                        "serial", "-", serial_rps, "1.00x");
          }
        }
        if (run_affinity) {
          for (const std::size_t workers : worker_sweep) {
            const double rps = run_cell(workload, workers, mode.spin_ns, mode.sleep_ns, batch);
            report
                .series("affinity " + tag + " [real]", "real", "throughput", "req/s",
                        "workers")
                .config("executor_impl", "affinity")
                .config("conflict_pct", conflict)
                .config("work", mode.name)
                .point(static_cast<double>(workers), rps);
            if (rep == args.repeat - 1) {
              char ratio[16];
              ratio_str(rps, ratio, sizeof(ratio));
              std::printf("  %-10s %8d%% %-9s %8zu | %12.0f %12s\n", mode.name, conflict,
                          "affinity", workers, rps, ratio);
            }
          }
        }
      }
    }
  }
  std::printf(
      "\n  io-bound scales with workers at low conflict even on one core;\n"
      "  cpu-bound scales only up to the host's cores (%u here); conflict=100%%\n"
      "  serializes on the hot key's chain, and affinity keeps the\n"
      "  non-conflicting remainder streaming across batches.\n",
      std::thread::hardware_concurrency());
  return report.finish();
}
