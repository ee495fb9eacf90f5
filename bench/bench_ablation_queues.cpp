// Ablation: queue implementations (§V-E / design choice).
//
// Measures the two hot Fig 3 hand-offs on their REAL pipeline types, A/B
// between the instrumented BoundedBlockingQueue (queue_impl=mutex) and the
// lock-free MpmcRing with spin-then-park waiting (queue_impl=ring):
//
//   * ProposalQueue edge — PipelineQueue<Bytes>, paper capacity 20,
//     1300-byte batches (BSZ), single Batcher producer, single Protocol
//     consumer, blocking push (backpressure, no drops);
//   * reply edge — PipelineQueue<ClientReplyFrame>, 8-byte replies,
//     single ServiceManager producer, single ClientIO consumer;
//
// plus the raw ring and uncontended baselines that bound the attainable
// speedup. The same A/B on the full pipeline is
// bench_fig08 --set queue_impl=mutex|ring.
#include <benchmark/benchmark.h>

#include <thread>

#include "common/queue.hpp"
#include "gbench_glue.hpp"
#include "smr/client_proto.hpp"
#include "smr/reply_outbox.hpp"

using namespace mcsmr;

namespace {

/// One producer (the benchmark thread) blocking-pushes through a
/// PipelineQueue to one consumer thread — the shape of both hot edges.
template <typename T, typename MakeItem>
void run_edge(benchmark::State& state, QueueImpl impl, std::size_t capacity,
              MakeItem make_item) {
  PipelineQueue<T> queue(impl, capacity, "bench-edge");
  std::thread consumer([&] {
    while (queue.pop().has_value()) {
    }
  });
  std::uint64_t items = 0;
  for (auto _ : state) {
    queue.push(make_item(items));
    ++items;
  }
  queue.close();
  consumer.join();
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
}

Bytes proposal_batch(std::uint64_t i) {
  Bytes batch(1300);  // BSZ: the paper's batch size
  batch[0] = static_cast<std::uint8_t>(i);
  return batch;
}

smr::ClientReplyFrame reply_frame(std::uint64_t i) {
  return smr::ClientReplyFrame{i & 0xFF, i, smr::ReplyStatus::kOk, Bytes(8, 0x5A)};
}

void BM_ProposalEdge_Mutex(benchmark::State& state) {
  run_edge<Bytes>(state, QueueImpl::kMutex, 20, proposal_batch);
}
BENCHMARK(BM_ProposalEdge_Mutex);

void BM_ProposalEdge_Ring(benchmark::State& state) {
  run_edge<Bytes>(state, QueueImpl::kRing, 20, proposal_batch);
}
BENCHMARK(BM_ProposalEdge_Ring);

void BM_ReplyEdge_Mutex(benchmark::State& state) {
  run_edge<smr::ClientReplyFrame>(state, QueueImpl::kMutex, smr::ReplyOutbox::kQueueCap,
                                  reply_frame);
}
BENCHMARK(BM_ReplyEdge_Mutex);

void BM_ReplyEdge_Ring(benchmark::State& state) {
  run_edge<smr::ClientReplyFrame>(state, QueueImpl::kRing, smr::ReplyOutbox::kQueueCap,
                                  reply_frame);
}
BENCHMARK(BM_ReplyEdge_Ring);

// --- raw baseline (upper bound on the attainable hand-off rate) ----------

void BM_MpmcRing_Raw(benchmark::State& state) {
  MpmcRing<std::uint64_t> ring(1024);
  std::atomic<bool> stop{false};
  std::thread consumer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (auto v = ring.try_pop()) {
        benchmark::DoNotOptimize(*v);
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::uint64_t i = 0;
  for (auto _ : state) {
    while (!ring.try_push(i)) std::this_thread::yield();
    ++i;
  }
  stop.store(true);
  consumer.join();
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_MpmcRing_Raw);

// Uncontended single-thread push/pop cost (the queue-op overhead every
// request pays several times on its way through the pipeline).
void BM_BlockingQueue_Uncontended(benchmark::State& state) {
  BoundedBlockingQueue<std::uint64_t> queue(1024);
  std::uint64_t i = 0;
  for (auto _ : state) {
    queue.push(i++);
    benchmark::DoNotOptimize(queue.try_pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_BlockingQueue_Uncontended);

void BM_RingQueue_Uncontended(benchmark::State& state) {
  PipelineQueue<std::uint64_t> queue(QueueImpl::kRing, 1024, "uncontended");
  std::uint64_t i = 0;
  for (auto _ : state) {
    queue.push(i++);
    benchmark::DoNotOptimize(queue.try_pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_RingQueue_Uncontended);

}  // namespace

int main(int argc, char** argv) {
  const auto args = mcsmr::bench::BenchArgs::parse(argc, argv, "ablation_queues");
  mcsmr::bench::BenchReport report(
      args, "Ablation: blocking queue vs lock-free ring on the real pipeline edges (§V-E)");
  return mcsmr::bench::run_gbench_report(report, args, argc, argv);
}
