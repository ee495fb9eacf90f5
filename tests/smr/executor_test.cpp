// Parallel execution: classifier contracts, affinity scheduling
// invariants, and the SMR determinism contract — the same decided
// sequence through the serial baseline and the affinity executor must
// yield identical service state and identical replies.
#include "smr/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "smr/service.hpp"
#include "smr/service_manager.hpp"

namespace mcsmr::smr {
namespace {

std::vector<paxos::Request> make_requests(const std::vector<Bytes>& payloads) {
  std::vector<paxos::Request> requests;
  requests.reserve(payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    requests.push_back({/*client_id=*/i + 1, /*seq=*/1, payloads[i]});
  }
  return requests;
}

// --- classifier contracts -------------------------------------------------

TEST(RequestClassify, DefaultServiceIsGlobal) {
  struct Opaque : Service {
    Bytes execute(const Bytes&) override { return {}; }
    Bytes snapshot() const override { return {}; }
    void install(const Bytes&) override {}
  } service;
  EXPECT_TRUE(service.classify(Bytes{1, 2, 3}).global);
}

TEST(RequestClassify, NullServiceIsConflictFree) {
  NullService service;
  const auto c = service.classify(Bytes(128, 0xFF));
  EXPECT_FALSE(c.global);
  EXPECT_TRUE(c.keys.empty());
}

TEST(RequestClassify, KvGetReadsKeyPutWritesKey) {
  KvService kv;
  const auto get = kv.classify(KvService::make_get("k"));
  EXPECT_FALSE(get.global);
  EXPECT_TRUE(get.read_only);
  ASSERT_EQ(get.keys.size(), 1u);

  const auto put = kv.classify(KvService::make_put("k", Bytes{1}));
  EXPECT_FALSE(put.global);
  EXPECT_FALSE(put.read_only);
  ASSERT_EQ(put.keys.size(), 1u);
  EXPECT_EQ(put.keys[0], get.keys[0]) << "same key must hash identically";

  const auto other = kv.classify(KvService::make_put("other-key", Bytes{1}));
  EXPECT_NE(other.keys[0], put.keys[0]) << "distinct keys should (almost surely) differ";
}

TEST(RequestClassify, KvMalformedIsGlobal) {
  KvService kv;
  EXPECT_TRUE(kv.classify(Bytes{0xFF}).global);
  EXPECT_TRUE(kv.classify(Bytes{}).global);
}

TEST(RequestClassify, LockAcquiresShareTheFencingCounterKey) {
  LockService locks;
  const auto a = locks.classify(LockService::make_acquire("A", 1));
  const auto b = locks.classify(LockService::make_acquire("B", 2));
  ASSERT_EQ(a.keys.size(), 2u);
  ASSERT_EQ(b.keys.size(), 2u);
  EXPECT_FALSE(a.read_only);
  // The fencing-counter pseudo-key must be common to both acquires so
  // they serialize (token order must match decided order).
  EXPECT_EQ(a.keys[1], b.keys[1]);
  EXPECT_NE(a.keys[0], b.keys[0]);

  const auto check = locks.classify(LockService::make_check("A"));
  EXPECT_TRUE(check.read_only);
  ASSERT_EQ(check.keys.size(), 1u);
  EXPECT_EQ(check.keys[0], a.keys[0]);
}

// --- scheduler invariants -------------------------------------------------

/// Service that records the peak number of concurrently running
/// execute() calls and which payload bytes overlapped.
class ConcurrencyProbeService : public Service {
 public:
  explicit ConcurrencyProbeService(bool conflict_free) : conflict_free_(conflict_free) {}

  Bytes execute(const Bytes& request) override {
    const int now = running_.fetch_add(1, std::memory_order_acq_rel) + 1;
    int peak = peak_.load(std::memory_order_relaxed);
    while (now > peak && !peak_.compare_exchange_weak(peak, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    running_.fetch_sub(1, std::memory_order_acq_rel);
    return request;
  }
  RequestClass classify(const Bytes& request) const override {
    if (conflict_free_) return RequestClass::conflict_free();
    // One shared key: everything conflicts.
    (void)request;
    return RequestClass::write(42);
  }
  Bytes snapshot() const override { return {}; }
  void install(const Bytes&) override {}

  int peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  const bool conflict_free_;
  std::atomic<int> running_{0};
  std::atomic<int> peak_{0};
};

// --- affinity executor ------------------------------------------------------

Config affinity_config(std::size_t workers) {
  Config config;
  config.executor_impl = ExecutorImpl::kAffinity;
  config.executor_workers = workers;
  return config;
}

/// ClientIo stub keying reply payloads by (client, seq): affinity workers
/// complete out of order across keys, so determinism is reply CONTENT per
/// request, not a global reply order.
class KeyedReplyIo : public ClientIo {
 public:
  void start() override {}
  void stop() override {}
  void send_reply(paxos::ClientId client, paxos::RequestSeq seq, ReplyStatus /*status*/,
                  const Bytes& payload) override {
    std::lock_guard<std::mutex> guard(mu_);
    replies_[{client, seq}] = payload;
  }
  std::map<std::pair<paxos::ClientId, paxos::RequestSeq>, Bytes> replies() const {
    std::lock_guard<std::mutex> guard(mu_);
    return replies_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::pair<paxos::ClientId, paxos::RequestSeq>, Bytes> replies_;
};

/// Feed the decided sequence through an AffinityExecutor in batch-sized
/// instances (classes computed via service.classify, as the Batcher
/// would) and return the replies keyed by (client, seq).
std::map<std::pair<paxos::ClientId, paxos::RequestSeq>, Bytes> run_affinity(
    Service& service, const std::vector<Bytes>& payloads, std::size_t workers,
    std::size_t batch = 16) {
  const Config config = affinity_config(workers);
  ReplyCache cache;
  KeyedReplyIo io;
  SharedState shared{3};
  AffinityExecutor executor(config, service, cache, io, shared);
  executor.start();
  const auto requests = make_requests(payloads);
  paxos::InstanceId instance = 0;
  for (std::size_t base = 0; base < requests.size(); base += batch) {
    std::vector<paxos::Request> chunk;
    std::vector<RequestClass> classes;
    for (std::size_t i = base; i < std::min(requests.size(), base + batch); ++i) {
      chunk.push_back(requests[i]);
      classes.push_back(service.classify(requests[i].payload));
    }
    executor.submit(instance, std::move(chunk), std::move(classes));
    executor.publish_frontier(instance);
    ++instance;
  }
  executor.stop();  // close-and-drain: every submitted task retires
  EXPECT_EQ(shared.executed_frontier.load(std::memory_order_acquire), instance)
      << "frontier must cover every published instance after drain";
  return io.replies();
}

/// Serial baseline producing the same keyed view, batched into the same
/// decided instances (KV write versions carry the deciding instance, and
/// they are part of the snapshot bytes being compared).
std::map<std::pair<paxos::ClientId, paxos::RequestSeq>, Bytes> run_serial_keyed(
    Service& service, const std::vector<Bytes>& payloads, std::size_t batch = 16) {
  std::map<std::pair<paxos::ClientId, paxos::RequestSeq>, Bytes> replies;
  const auto requests = make_requests(payloads);
  paxos::InstanceId instance = 0;
  for (std::size_t base = 0; base < requests.size(); base += batch) {
    service.note_instance(instance++);
    for (std::size_t i = base; i < std::min(requests.size(), base + batch); ++i) {
      replies[{requests[i].client_id, requests[i].seq}] =
          service.execute(requests[i].payload);
    }
  }
  return replies;
}

TEST(AffinityExecutorTest, WorkerOfIsStableAndInRange) {
  EXPECT_EQ(AffinityExecutor::worker_of(123, 1), 0u);
  EXPECT_EQ(AffinityExecutor::worker_of(123, 0), 0u);
  std::vector<bool> hit(8, false);
  for (std::uint64_t key = 0; key < 4096; ++key) {
    const std::uint32_t w = AffinityExecutor::worker_of(key, 8);
    ASSERT_LT(w, 8u);
    EXPECT_EQ(w, AffinityExecutor::worker_of(key, 8)) << "unstable for key " << key;
    hit[w] = true;
  }
  for (std::size_t w = 0; w < hit.size(); ++w) {
    EXPECT_TRUE(hit[w]) << "worker " << w << " owns no key in 4096 — mixer is degenerate";
  }
}

TEST(AffinityExecutorTest, SliceMixerDiffersFromPartitionMixer) {
  // With W workers inside each of P partitions, the worker slice must not
  // be a function of the partition slice or one worker per pipeline gets
  // ALL of that pipeline's keys. The mixers differ, so keys that land on
  // one partition (mod P) must still spread over workers (mod W), P == W.
  std::vector<bool> hit(4, false);
  for (std::uint64_t key = 0; key < 100000 && !(hit[0] && hit[1] && hit[2] && hit[3]); ++key) {
    const std::uint64_t partition_mixed = key * 0x9E3779B97F4A7C15ull;
    if ((partition_mixed >> 32) % 4 != 0) continue;  // partition 0's keys only
    hit[AffinityExecutor::worker_of(key, 4)] = true;
  }
  EXPECT_TRUE(hit[0] && hit[1] && hit[2] && hit[3])
      << "partition-0 keys collapse onto a subset of workers";
}

TEST(AffinityExecutorTest, ConflictFreeSpreadsAcrossWorkers) {
  ConcurrencyProbeService probe(/*conflict_free=*/true);
  ReplyCache cache;
  KeyedReplyIo io;
  SharedState shared{3};
  AffinityExecutor executor(affinity_config(4), probe, cache, io, shared);
  executor.start();
  std::vector<paxos::Request> requests = make_requests(std::vector<Bytes>(64, Bytes{1}));
  std::vector<RequestClass> classes(64, RequestClass::conflict_free());
  executor.submit(0, std::move(requests), std::move(classes));
  executor.stop();
  EXPECT_GT(probe.peak(), 1) << "conflict-free requests never ran concurrently";
  EXPECT_EQ(io.replies().size(), 64u);
  EXPECT_EQ(executor.dispatched(), 64u);
  EXPECT_EQ(executor.rendezvous_count(), 0u);
}

TEST(AffinityExecutorTest, SameKeyNeverOverlapsAndKeepsDecidedOrder) {
  ConcurrencyProbeService probe(/*conflict_free=*/false);
  ReplyCache cache;
  KeyedReplyIo io;
  SharedState shared{3};
  AffinityExecutor executor(affinity_config(4), probe, cache, io, shared);
  executor.start();
  std::vector<paxos::Request> requests = make_requests(std::vector<Bytes>(64, Bytes{1}));
  std::vector<RequestClass> classes(64, RequestClass::write(42));
  executor.submit(0, std::move(requests), std::move(classes));
  executor.stop();
  EXPECT_EQ(probe.peak(), 1) << "same-key requests overlapped";
  // The single owning worker executes the whole chain off its queue.
  EXPECT_EQ(executor.dispatched(), 64u);
  EXPECT_EQ(io.replies().size(), 64u);
}

TEST(AffinityExecutorTest, GlobalRequestRendezvousesAllWorkers) {
  ConcurrencyProbeService probe(/*conflict_free=*/true);
  ReplyCache cache;
  KeyedReplyIo io;
  SharedState shared{3};
  AffinityExecutor executor(affinity_config(4), probe, cache, io, shared);
  executor.start();
  std::vector<paxos::Request> requests = make_requests(std::vector<Bytes>(9, Bytes{1}));
  std::vector<RequestClass> classes(9, RequestClass::conflict_free());
  classes[4] = RequestClass{{}, false, true};  // global: involves every worker
  executor.submit(0, std::move(requests), std::move(classes));
  executor.stop();
  EXPECT_EQ(executor.rendezvous_count(), 1u);
  EXPECT_EQ(io.replies().size(), 9u);
}

TEST(AffinityExecutorTest, UnstartedFallsBackInline) {
  NullService service;
  ReplyCache cache;
  KeyedReplyIo io;
  SharedState shared{3};
  AffinityExecutor executor(affinity_config(2), service, cache, io, shared);  // no start()
  executor.submit(0, make_requests(std::vector<Bytes>(10, Bytes{1})),
                  std::vector<RequestClass>(10, RequestClass::conflict_free()));
  executor.publish_frontier(0);
  EXPECT_EQ(service.executed(), 10u);
  EXPECT_EQ(executor.inline_execs(), 10u);
  EXPECT_EQ(executor.dispatched(), 0u);
  EXPECT_EQ(shared.executed_frontier.load(), 1u);
}

TEST(AffinityExecutorTest, RestartAfterStopStillDispatches) {
  NullService service;
  ReplyCache cache;
  KeyedReplyIo io;
  SharedState shared{3};
  AffinityExecutor executor(affinity_config(2), service, cache, io, shared);
  const auto submit_some = [&](paxos::InstanceId instance) {
    executor.submit(instance, make_requests(std::vector<Bytes>(16, Bytes{1})),
                    std::vector<RequestClass>(16, RequestClass::conflict_free()));
    executor.publish_frontier(instance);
  };
  executor.start();
  submit_some(0);
  executor.stop();
  const std::uint64_t dispatched_first = executor.dispatched();
  EXPECT_GT(dispatched_first, 0u);
  executor.start();
  submit_some(1);
  executor.stop();
  EXPECT_GT(executor.dispatched(), dispatched_first)
      << "second start() must dispatch to live workers again";
  EXPECT_EQ(service.executed(), 32u);
  EXPECT_EQ(shared.executed_frontier.load(), 2u);
}

TEST(AffinityExecutorTest, QuiesceDrainsAndResumeRestarts) {
  KvService kv;
  ReplyCache cache;
  KeyedReplyIo io;
  SharedState shared{3};
  AffinityExecutor executor(affinity_config(3), kv, cache, io, shared);
  executor.start();
  std::vector<Bytes> payloads;
  for (int i = 0; i < 60; ++i) {
    payloads.push_back(KvService::make_put("k" + std::to_string(i % 9),
                                           Bytes{static_cast<std::uint8_t>(i)}));
  }
  auto requests = make_requests(payloads);
  std::vector<RequestClass> classes;
  for (const auto& request : requests) classes.push_back(kv.classify(request.payload));
  executor.submit(0, std::move(requests), std::move(classes));
  executor.quiesce();
  // Quiesced: every submitted request has executed; state is stable.
  EXPECT_EQ(kv.size(), 9u);
  EXPECT_EQ(io.replies().size(), 60u);
  const Bytes snapshot = kv.snapshot();
  executor.resume();
  // Workers stream again after resume.
  executor.submit(1, make_requests({KvService::make_put("post", Bytes{1})}),
                  {RequestClass::write(7)});
  executor.stop();
  EXPECT_EQ(kv.size(), 10u);
  EXPECT_EQ(kv.snapshot() == snapshot, false);
  // Back-to-back quiesce cycles must not lose wakeups.
  executor.start();
  executor.quiesce();
  executor.resume();
  executor.quiesce();
  executor.resume();
  executor.stop();
}

// --- determinism: serial vs affinity ----------------------------------------

TEST(AffinityDeterminism, KvMixedWorkloadMatchesSerial) {
  // A mixed PUT/GET/CAS/DEL stream over a small key space. Values depend
  // on execution order within a key (PUT returns the old value), so any
  // ordering bug shows up in the replies. Replies are compared by
  // (client, seq) — affinity reply ORDER is unconstrained across keys —
  // and final snapshots must be byte-identical.
  std::vector<Bytes> payloads;
  for (int i = 0; i < 400; ++i) {
    const std::string key = "k" + std::to_string(i % 7);
    const auto v = static_cast<std::uint8_t>(i);
    switch (i % 4) {
      case 0: payloads.push_back(KvService::make_put(key, Bytes{v})); break;
      case 1: payloads.push_back(KvService::make_get(key)); break;
      case 2:
        payloads.push_back(
            KvService::make_cas(key, Bytes{static_cast<std::uint8_t>(i - 2)}, Bytes{v}));
        break;
      case 3: payloads.push_back(KvService::make_del(key)); break;
    }
  }
  for (const std::size_t workers : {1u, 2u, 4u}) {
    KvService serial, affinity;
    const auto serial_replies = run_serial_keyed(serial, payloads);
    const auto affinity_replies = run_affinity(affinity, payloads, workers);
    EXPECT_EQ(serial_replies, affinity_replies)
        << "replies diverged with " << workers << " workers";
    EXPECT_EQ(serial.snapshot(), affinity.snapshot())
        << "state diverged with " << workers << " workers";
  }
}

TEST(AffinityDeterminism, ConflictStormOnOneKey) {
  // Every request writes the same key: one worker owns it and must apply
  // in decided order. PUT returns the previous value, so replies chain.
  std::vector<Bytes> payloads;
  for (int i = 0; i < 300; ++i) {
    payloads.push_back(KvService::make_put("hot", Bytes{static_cast<std::uint8_t>(i)}));
  }
  KvService serial, affinity;
  const auto serial_replies = run_serial_keyed(serial, payloads);
  const auto affinity_replies = run_affinity(affinity, payloads, 4);
  EXPECT_EQ(serial_replies, affinity_replies);
  EXPECT_EQ(serial.snapshot(), affinity.snapshot());
}

TEST(AffinityDeterminism, LockFencingChainMatchesSerial) {
  // Acquire/release/check over several locks and owners: every ACQUIRE
  // writes the shared fencing-counter key, so acquires on DIFFERENT locks
  // rendezvous and must still drain tokens in decided order.
  std::vector<Bytes> payloads;
  for (int i = 0; i < 200; ++i) {
    const std::string name = "L" + std::to_string(i % 5);
    const std::uint64_t owner = 1 + (i % 3);
    switch (i % 3) {
      case 0: payloads.push_back(LockService::make_acquire(name, owner)); break;
      case 1: payloads.push_back(LockService::make_check(name)); break;
      case 2: payloads.push_back(LockService::make_release(name, owner)); break;
    }
  }
  for (const std::size_t workers : {2u, 4u}) {
    LockService serial, affinity;
    const auto serial_replies = run_serial_keyed(serial, payloads);
    const auto affinity_replies = run_affinity(affinity, payloads, workers);
    EXPECT_EQ(serial_replies, affinity_replies)
        << "fencing tokens diverged with " << workers << " workers";
    EXPECT_EQ(serial.snapshot(), affinity.snapshot());
  }
}

TEST(AffinityDeterminism, GlobalRequestsFenceTheStream) {
  // Malformed (global) requests interleaved with per-key puts: the global
  // rendezvous must see all prior effects and precede all later ones.
  std::vector<Bytes> payloads;
  for (int i = 0; i < 120; ++i) {
    if (i % 10 == 9) {
      payloads.push_back(Bytes{0xFF});  // malformed -> global
    } else {
      payloads.push_back(KvService::make_put("k" + std::to_string(i), Bytes{1}));
    }
  }
  KvService serial, affinity;
  const auto serial_replies = run_serial_keyed(serial, payloads);
  const auto affinity_replies = run_affinity(affinity, payloads, 4);
  EXPECT_EQ(serial_replies, affinity_replies);
  EXPECT_EQ(serial.snapshot(), affinity.snapshot());
}

// --- ServiceManager-level contracts ---------------------------------------

/// ClientIo stub recording every reply hand-off.
class CapturingClientIo : public ClientIo {
 public:
  void start() override {}
  void stop() override {}
  void send_reply(paxos::ClientId client, paxos::RequestSeq seq, ReplyStatus /*status*/,
                  const Bytes& /*payload*/) override {
    std::lock_guard<std::mutex> guard(mu_);
    replies_.emplace_back(client, seq);
  }
  std::vector<std::pair<paxos::ClientId, paxos::RequestSeq>> replies() const {
    std::lock_guard<std::mutex> guard(mu_);
    return replies_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<paxos::ClientId, paxos::RequestSeq>> replies_;
};

struct ManagerRig {
  Config config;
  DecisionQueue decisions{16, "DecisionQueue"};
  KvService kv;
  ReplyCache cache;
  CapturingClientIo io;
  DispatcherQueue dispatcher{16, "DispatcherQueue"};
  SharedState shared{3};
  std::unique_ptr<ServiceManager> manager;

  explicit ManagerRig(const std::string& impl) {
    config.apply_overrides({{"executor_impl", impl}});
    manager = std::make_unique<ServiceManager>(config, decisions, kv, cache, io, dispatcher,
                                               shared);
  }
  /// Push everything, then drain: close the queue and join the thread.
  void run(std::vector<DecisionEvent> events) {
    manager->start();
    for (auto& event : events) decisions.push(std::move(event));
    decisions.close();
    manager->stop();
  }
};

TEST(ServiceManagerExec, StopBeforeStartIsANoOp) {
  ManagerRig rig("serial");
  rig.manager->stop();  // must not touch the never-started thread
  rig.manager->stop();
  ManagerRig affinity_rig("affinity");
  affinity_rig.manager->stop();
}

TEST(ServiceManagerExec, UndecodableBatchCountsItsInstance) {
  for (const char* impl : {"serial", "affinity"}) {
    ManagerRig rig(impl);
    std::vector<paxos::Request> good = {{1, 1, KvService::make_put("k", Bytes{9})}};
    rig.run({Decision{0, Bytes{0xDE, 0xAD}},  // undecodable
             Decision{1, paxos::encode_batch(good)}});
    EXPECT_EQ(rig.manager->executed_instances(), 2u)
        << impl << ": the skipped instance must still be counted";
    EXPECT_EQ(rig.shared.executed_requests.load(), 1u) << impl;
  }
}

TEST(ServiceManagerExec, StaleLowerSeqInSameBatchIsSkippedLikeSerial) {
  // A view-change re-decide can land an OLD (client, seq) after a newer
  // one inside a single batch. The serial path skips it via the
  // per-request cache check (seq <= last executed); the affinity batch
  // pre-filter must agree, or replicas configured differently diverge.
  for (const char* impl : {"serial", "affinity"}) {
    ManagerRig rig(impl);
    std::vector<paxos::Request> batch = {
        {7, 5, KvService::make_put("k", Bytes{1})},
        {7, 4, KvService::make_put("k", Bytes{2})},  // stale: must not execute
    };
    rig.run({Decision{0, paxos::encode_batch(batch)}});
    auto reply = rig.kv.execute(KvService::make_get("k"));
    EXPECT_EQ(*KvService::parse_reply(reply), Bytes{1})
        << impl << ": stale seq overwrote newer state";
    EXPECT_EQ(rig.shared.executed_requests.load(), 1u) << impl;
    EXPECT_EQ(rig.io.replies().size(), 1u) << impl;
  }
}

TEST(ServiceManagerExec, AffinityMatchesSerialAcrossBatches) {
  // The same decided batches through executor_impl=serial and =affinity.
  // Replies are compared as a SET — workers complete out of order across keys; the
  // state manifest and per-request reply coverage must still be identical.
  const auto feed = [](ManagerRig& rig) {
    std::vector<DecisionEvent> events;
    for (int b = 0; b < 10; ++b) {
      std::vector<paxos::Request> batch;
      for (int i = 0; i < 8; ++i) {
        const int n = b * 8 + i;
        batch.push_back({static_cast<paxos::ClientId>(n + 1), 1,
                         KvService::make_put("k" + std::to_string(n % 5),
                                             Bytes{static_cast<std::uint8_t>(n)})});
      }
      events.push_back(Decision{static_cast<paxos::InstanceId>(b), paxos::encode_batch(batch)});
    }
    rig.run(std::move(events));
  };
  ManagerRig serial("serial"), affinity("affinity");
  feed(serial);
  feed(affinity);
  EXPECT_EQ(serial.kv.snapshot(), affinity.kv.snapshot());
  EXPECT_EQ(serial.manager->executed_instances(), affinity.manager->executed_instances());
  EXPECT_EQ(serial.shared.executed_requests.load(), affinity.shared.executed_requests.load());
  auto serial_replies = serial.io.replies();
  auto affinity_replies = affinity.io.replies();
  std::sort(serial_replies.begin(), serial_replies.end());
  std::sort(affinity_replies.begin(), affinity_replies.end());
  EXPECT_EQ(serial_replies, affinity_replies) << "reply coverage must match";
  EXPECT_EQ(serial.shared.executed_frontier.load(), affinity.shared.executed_frontier.load());
}

TEST(ServiceManagerExec, ClassifiedBatchExecutesLikePlain) {
  // The same requests through the v1 and the v2 (classified) encodings
  // must leave identical state — the carried footprints only change WHERE
  // requests run, never their effects. Also proves an affinity replica
  // decodes an old leader's v1 batches (classify fallback) and a serial
  // replica decodes a new leader's v2 batches (footprints discarded).
  KvService reference;  // classifier for building the v2 encoding
  const auto build = [&](bool classified) {
    std::vector<DecisionEvent> events;
    for (int b = 0; b < 6; ++b) {
      std::vector<paxos::Request> batch;
      std::vector<RequestClass> classes;
      for (int i = 0; i < 5; ++i) {
        const int n = b * 5 + i;
        batch.push_back({static_cast<paxos::ClientId>(n + 1), 1,
                         KvService::make_put("k" + std::to_string(n % 3),
                                             Bytes{static_cast<std::uint8_t>(n)})});
        classes.push_back(reference.classify(batch.back().payload));
      }
      events.push_back(
          Decision{static_cast<paxos::InstanceId>(b),
                   classified ? paxos::encode_classified_batch(batch, classes)
                              : paxos::encode_batch(batch)});
    }
    return events;
  };
  for (const char* impl : {"serial", "affinity"}) {
    ManagerRig v1(impl), v2(impl);
    v1.run(build(/*classified=*/false));
    v2.run(build(/*classified=*/true));
    EXPECT_EQ(v1.kv.snapshot(), v2.kv.snapshot()) << impl;
    EXPECT_EQ(v1.shared.executed_requests.load(), v2.shared.executed_requests.load()) << impl;
  }
}

}  // namespace
}  // namespace mcsmr::smr
