// Ablation: retransmission cancel path (§V-C4).
//
// The paper's design cancels with a lock-free atomic flag and no wake-up,
// because cancel runs once for EVERY message ordered (the hot path).
// This bench compares that against the conventional alternative — a
// mutex-protected map erase with condition-variable notification.
#include <benchmark/benchmark.h>

#include <condition_variable>
#include <mutex>
#include <unordered_map>

#include "gbench_glue.hpp"
#include "net/simnet.hpp"
#include "smr/retransmitter.hpp"
#include "smr/transport.hpp"

using namespace mcsmr;

namespace {

// The shipped design: schedule + lock-free cancel.
void BM_ScheduleCancel_LockFree(benchmark::State& state) {
  net::SimNetParams net_params;
  net_params.node_pps = 0;
  net_params.node_bandwidth_bps = 0;
  net::SimNetwork network(net_params);
  auto a = network.add_node("a");
  auto b = network.add_node("b");
  std::vector<net::NodeId> nodes = {a, b};

  Config config;
  config.n = 2;
  smr::SharedState shared(2);
  smr::DispatcherQueue dispatcher(64, "d");
  smr::SimPeerTransport transport(network, nodes, 0);
  smr::ReplicaIo replica_io(config, 0, transport);
  replica_io.register_partition(dispatcher, shared);
  smr::Retransmitter retransmitter(config, replica_io);
  retransmitter.start();

  std::uint64_t key = 0;
  for (auto _ : state) {
    retransmitter.schedule(key, paxos::Accept{1, key});
    retransmitter.cancel(key);
    ++key;
  }
  retransmitter.stop();
  state.SetItemsProcessed(static_cast<std::int64_t>(key));
}
BENCHMARK(BM_ScheduleCancel_LockFree);

// The conventional alternative: every cancel takes the queue lock and
// notifies the timer thread.
class LockedRetransmitter {
 public:
  void schedule(std::uint64_t key) {
    std::lock_guard<std::mutex> guard(mu_);
    pending_[key] = key;
    cv_.notify_one();
  }
  void cancel(std::uint64_t key) {
    std::lock_guard<std::mutex> guard(mu_);
    pending_.erase(key);
    cv_.notify_one();  // wake the timer thread to re-evaluate its deadline
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::uint64_t, std::uint64_t> pending_;
};

void BM_ScheduleCancel_Locked(benchmark::State& state) {
  LockedRetransmitter retransmitter;
  // A timer thread that sleeps on the condvar, as a real one would.
  std::atomic<bool> stop{false};
  std::mutex timer_mu;
  std::condition_variable timer_cv;
  std::thread timer([&] {
    std::unique_lock<std::mutex> lock(timer_mu);
    while (!stop.load(std::memory_order_relaxed)) {
      timer_cv.wait_for(lock, std::chrono::milliseconds(1));
    }
  });

  std::uint64_t key = 0;
  for (auto _ : state) {
    retransmitter.schedule(key);
    retransmitter.cancel(key);
    timer_cv.notify_one();
    ++key;
  }
  stop.store(true);
  timer_cv.notify_all();
  timer.join();
  state.SetItemsProcessed(static_cast<std::int64_t>(key));
}
BENCHMARK(BM_ScheduleCancel_Locked);

}  // namespace

int main(int argc, char** argv) {
  const auto args = mcsmr::bench::BenchArgs::parse(argc, argv, "ablation_retransmit");
  mcsmr::bench::BenchReport report(args, "Ablation: retransmission cancel path (§V-C4)");
  return mcsmr::bench::run_gbench_report(report, args, argc, argv);
}
