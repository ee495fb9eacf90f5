#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "common/clock.hpp"
#include "paxos/batch_builder.hpp"
#include "paxos/engine.hpp"
#include "paxos/storage.hpp"
#include "smr/client_proto.hpp"

namespace e2e {

using namespace mcsmr;

namespace {

constexpr std::size_t kRequests = 4096;
constexpr std::size_t kClients = 1800;  ///< ids/seqs spread as the paper's population would
constexpr int kPasses = 5;
constexpr std::size_t kStorageBatches = 100;

/// Median over kPasses of one pass's duration, per item. `pass` returns
/// the nanoseconds its timed part took.
template <class Pass>
double median_pass_ns(std::size_t items, Pass&& pass) {
  std::vector<std::uint64_t> times;
  for (int i = 0; i < kPasses; ++i) times.push_back(pass());
  std::sort(times.begin(), times.end());
  return static_cast<double>(times[times.size() / 2]) / static_cast<double>(items);
}

/// Three engines exchanging messages through an in-memory FIFO.
class EngineTrio {
 public:
  explicit EngineTrio(const Config& config) {
    for (int id = 0; id < config.n; ++id) {
      engines_.push_back(std::make_unique<paxos::Engine>(config, static_cast<ReplicaId>(id)));
    }
    for (int id = 0; id < config.n; ++id) {
      std::vector<paxos::Effect> out;
      engines_[static_cast<std::size_t>(id)]->start(out);
      absorb(static_cast<ReplicaId>(id), out);
    }
    settle();
    if (!engines_.front()->is_leader()) throw std::runtime_error("replay: no view-0 leader");
  }

  /// Order one batch; returns the Deliver effects it produced (one per
  /// engine once every engine decided).
  std::uint64_t order(Bytes batch) {
    const std::uint64_t before = delivered_;
    std::vector<paxos::Effect> out;
    if (!engines_.front()->on_batch(std::move(batch), out)) {
      throw std::runtime_error("replay: leader refused a batch");
    }
    absorb(0, out);
    settle();
    return delivered_ - before;
  }

 private:
  struct Pending {
    ReplicaId from, to;
    paxos::Message message;
  };

  void absorb(ReplicaId self, std::vector<paxos::Effect>& effects) {
    for (auto& effect : effects) {
      if (auto* send = std::get_if<paxos::SendTo>(&effect)) {
        if (send->to != self) pending_.push_back({self, send->to, std::move(send->message)});
      } else if (auto* bcast = std::get_if<paxos::BroadcastMsg>(&effect)) {
        for (std::size_t to = 0; to < engines_.size(); ++to) {
          if (to != self) pending_.push_back({self, static_cast<ReplicaId>(to), bcast->message});
        }
      } else if (std::holds_alternative<paxos::Deliver>(effect)) {
        ++delivered_;
      }
    }
    effects.clear();
  }

  void settle() {
    std::vector<paxos::Effect> out;
    while (!pending_.empty()) {
      Pending next = std::move(pending_.front());
      pending_.pop_front();
      engines_[next.to]->on_message(next.from, next.message, out);
      absorb(next.to, out);
    }
  }

  std::vector<std::unique_ptr<paxos::Engine>> engines_;
  std::deque<Pending> pending_;
  std::uint64_t delivered_ = 0;
};

}  // namespace

ReplayCosts replay_layers(const Workload& workload, const OpStream& ops, double reqs_per_batch,
                          const std::string& dir) {
  Config config = make_config(workload, dir);
  config.log_storage = StorageImpl::kMemory;  // the engines are timed without disk
  const bool classified = config.executor_impl == ExecutorImpl::kAffinity;

  std::vector<paxos::Request> requests;
  requests.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    requests.push_back(paxos::Request{1 + i % kClients, 1 + i / kClients,
                                      ops.payload(stamp_of(Stream::kFixedRate, i))});
  }
  ReplayCosts costs;

  // Service: classify and execute in stream order on a fresh instance.
  auto service = service_factory(workload)();
  std::vector<paxos::RequestClass> classes(kRequests);
  costs.classify_ns = median_pass_ns(kRequests, [&] {
    const std::uint64_t t0 = mono_ns();
    for (std::size_t i = 0; i < kRequests; ++i) classes[i] = service->classify(requests[i].payload);
    return mono_ns() - t0;
  });
  std::vector<Bytes> replies(kRequests);
  {
    const std::uint64_t t0 = mono_ns();
    for (std::size_t i = 0; i < kRequests; ++i) replies[i] = service->execute(requests[i].payload);
    costs.execute_ns = static_cast<double>(mono_ns() - t0) / kRequests;
  }

  // ClientIO codec.
  std::vector<Bytes> frames;
  frames.reserve(kRequests);
  for (const auto& r : requests) {
    frames.push_back(smr::encode_client_request({r.client_id, r.seq, 0, r.payload}));
  }
  std::uint64_t sink = 0;
  costs.decode_ns = median_pass_ns(kRequests, [&] {
    const std::uint64_t t0 = mono_ns();
    for (const auto& frame : frames) sink += smr::decode_client_frame(frame).request.seq;
    return mono_ns() - t0;
  });
  costs.reply_encode_ns = median_pass_ns(kRequests, [&] {
    const std::uint64_t t0 = mono_ns();
    for (std::size_t i = 0; i < kRequests; ++i) {
      sink += smr::encode_client_reply(
                  {requests[i].client_id, requests[i].seq, smr::ReplyStatus::kOk, replies[i]})
                  .size();
    }
    return mono_ns() - t0;
  });

  // Batcher policy at the configured BSZ (and encoding). add() consumes
  // its request, so each pass times a fresh copy of the stream.
  std::vector<Bytes> bsz_batches;
  costs.batch_add_ns = median_pass_ns(kRequests, [&] {
    std::vector<paxos::Request> input = requests;
    bsz_batches.clear();
    paxos::BatchBuilder builder(config.batch_max_bytes, config.batch_timeout_ns);
    if (classified) {
      builder.set_classifier([&](const Bytes& payload) { return service->classify(payload); });
    }
    std::uint64_t now = 0;
    const std::uint64_t t0 = mono_ns();
    for (auto& r : input) {
      for (auto& batch : builder.add(std::move(r), now)) bsz_batches.push_back(std::move(batch));
      if (auto batch = builder.poll(now)) bsz_batches.push_back(std::move(*batch));
      now += 1000;
    }
    if (auto batch = builder.poll(now, /*force=*/true)) bsz_batches.push_back(std::move(*batch));
    return mono_ns() - t0;
  });

  // Protocol: propose -> decide at the batch size the cluster ran at.
  {
    const auto per_batch =
        static_cast<std::size_t>(std::max(1.0, std::round(reqs_per_batch)));
    std::vector<Bytes> batches;
    for (std::size_t i = 0; i + per_batch <= kRequests; i += per_batch) {
      const std::vector<paxos::Request> slice(requests.begin() + static_cast<std::ptrdiff_t>(i),
                                              requests.begin() + static_cast<std::ptrdiff_t>(i + per_batch));
      if (classified) {
        const std::vector<paxos::RequestClass> slice_classes(
            classes.begin() + static_cast<std::ptrdiff_t>(i),
            classes.begin() + static_cast<std::ptrdiff_t>(i + per_batch));
        batches.push_back(paxos::encode_classified_batch(slice, slice_classes));
      } else {
        batches.push_back(paxos::encode_batch(slice));
      }
    }
    EngineTrio trio(config);
    const std::uint64_t t0 = mono_ns();
    for (auto& batch : batches) {
      if (trio.order(std::move(batch)) != static_cast<std::uint64_t>(config.n)) {
        throw std::runtime_error("replay: a batch was not decided on every engine");
      }
    }
    costs.engine_ns_per_instance =
        static_cast<double>(mono_ns() - t0) / static_cast<double>(std::max<std::size_t>(batches.size(), 1));
  }

  // Storage: append each BSZ batch as an accept record, then sync it.
  {
    std::filesystem::remove_all(dir);
    std::vector<std::uint64_t> syncs;
    std::uint64_t append_total = 0;
    {
      paxos::SegmentStorageOptions options;
      options.dir = dir;
      options.fsync_batch_ns = config.fsync_batch_ns;
      paxos::SegmentStorage storage(options);
      const std::size_t count = std::min(kStorageBatches, bsz_batches.size());
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t t0 = mono_ns();
        storage.append(paxos::DurableRecord::accept(1, i, bsz_batches[i]));
        const std::uint64_t t1 = mono_ns();
        storage.sync();
        append_total += t1 - t0;
        syncs.push_back(mono_ns() - t1);
      }
    }
    std::filesystem::remove_all(dir);
    if (!syncs.empty()) {
      costs.append_ns = static_cast<double>(append_total) / static_cast<double>(syncs.size());
      std::sort(syncs.begin(), syncs.end());
      costs.sync_p50_ms = static_cast<double>(syncs[(syncs.size() - 1) / 2]) / 1e6;
    }
  }
  if (sink == 0) throw std::runtime_error("replay: codec produced nothing");
  return costs;
}

}  // namespace e2e
