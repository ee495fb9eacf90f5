#include "smr/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace mcsmr::smr {
namespace {

TEST(NullService, FixedReplySize) {
  NullService service;  // the paper's 8-byte reply, from Config
  Bytes reply = service.execute(Bytes(128, 0xFF));
  EXPECT_EQ(reply.size(), Config{}.reply_payload_bytes);
  EXPECT_EQ(reply.size(), 8u);
  EXPECT_EQ(service.executed(), 1u);
}

TEST(NullService, SnapshotRoundTrip) {
  NullService service(16);
  service.execute({});
  service.execute({});
  NullService fresh(16);
  fresh.install(service.snapshot());
  EXPECT_EQ(fresh.executed(), 2u);
}

TEST(KvService, PutGetDel) {
  KvService kv;
  auto put_reply = kv.execute(KvService::make_put("k", Bytes{1, 2}));
  EXPECT_EQ(*KvService::parse_reply(put_reply), Bytes{});  // no old value

  auto get_reply = kv.execute(KvService::make_get("k"));
  EXPECT_EQ(*KvService::parse_reply(get_reply), (Bytes{1, 2}));

  auto del_reply = kv.execute(KvService::make_del("k"));
  EXPECT_EQ(*KvService::parse_reply(del_reply), (Bytes{1, 2}));

  auto get2 = kv.execute(KvService::make_get("k"));
  EXPECT_EQ(*KvService::parse_reply(get2), Bytes{});
  EXPECT_EQ(kv.size(), 0u);
}

TEST(KvService, PutReturnsOldValue) {
  KvService kv;
  kv.execute(KvService::make_put("k", Bytes{1}));
  auto reply = kv.execute(KvService::make_put("k", Bytes{2}));
  EXPECT_EQ(*KvService::parse_reply(reply), Bytes{1});
}

TEST(KvService, CasSucceedsOnMatch) {
  KvService kv;
  kv.execute(KvService::make_put("k", Bytes{1}));
  auto ok = kv.execute(KvService::make_cas("k", Bytes{1}, Bytes{2}));
  EXPECT_EQ((*KvService::parse_reply(ok))[0], 1);
  auto fail = kv.execute(KvService::make_cas("k", Bytes{1}, Bytes{3}));
  EXPECT_EQ((*KvService::parse_reply(fail))[0], 0);
  EXPECT_EQ(*KvService::parse_reply(kv.execute(KvService::make_get("k"))), Bytes{2});
}

TEST(KvService, CasOnMissingKeyTreatsEmptyAsCurrent) {
  KvService kv;
  auto ok = kv.execute(KvService::make_cas("new", Bytes{}, Bytes{7}));
  EXPECT_EQ((*KvService::parse_reply(ok))[0], 1);
  EXPECT_EQ(*KvService::parse_reply(kv.execute(KvService::make_get("new"))), Bytes{7});
}

TEST(KvService, MalformedRequestRejected) {
  KvService kv;
  auto reply = kv.execute(Bytes{0xFF});
  EXPECT_FALSE(KvService::parse_reply(reply).has_value());
}

TEST(KvService, SnapshotRoundTrip) {
  KvService kv;
  for (int i = 0; i < 20; ++i) {
    kv.execute(KvService::make_put("key" + std::to_string(i), Bytes{static_cast<std::uint8_t>(i)}));
  }
  KvService fresh;
  fresh.install(kv.snapshot());
  EXPECT_EQ(fresh.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    auto reply = fresh.execute(KvService::make_get("key" + std::to_string(i)));
    EXPECT_EQ(*KvService::parse_reply(reply), Bytes{static_cast<std::uint8_t>(i)});
  }
}

TEST(KvService, DeterministicAcrossInstances) {
  // Same request sequence => identical state and replies (the SMR
  // determinism contract).
  KvService a, b;
  std::vector<Bytes> ops = {
      KvService::make_put("x", Bytes{1}),
      KvService::make_cas("x", Bytes{1}, Bytes{2}),
      KvService::make_put("y", Bytes{3}),
      KvService::make_del("x"),
      KvService::make_get("y"),
  };
  for (const auto& op : ops) {
    EXPECT_EQ(a.execute(op), b.execute(op));
  }
  EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST(LockService, AcquireReleaseCycle) {
  LockService locks;
  auto grant = LockService::parse_acquire_reply(
      locks.execute(LockService::make_acquire("L", 100)));
  EXPECT_TRUE(grant.granted);
  EXPECT_GT(grant.fencing_token, 0u);

  auto denied = LockService::parse_acquire_reply(
      locks.execute(LockService::make_acquire("L", 200)));
  EXPECT_FALSE(denied.granted);

  EXPECT_FALSE(LockService::parse_release_reply(
      locks.execute(LockService::make_release("L", 200))))
      << "non-owner cannot release";
  EXPECT_TRUE(LockService::parse_release_reply(
      locks.execute(LockService::make_release("L", 100))));

  auto regrant = LockService::parse_acquire_reply(
      locks.execute(LockService::make_acquire("L", 200)));
  EXPECT_TRUE(regrant.granted);
  EXPECT_GT(regrant.fencing_token, grant.fencing_token) << "fencing tokens increase";
}

TEST(LockService, ReentrantAcquireKeepsToken) {
  LockService locks;
  auto first = LockService::parse_acquire_reply(
      locks.execute(LockService::make_acquire("L", 1)));
  auto again = LockService::parse_acquire_reply(
      locks.execute(LockService::make_acquire("L", 1)));
  EXPECT_TRUE(again.granted);
  EXPECT_EQ(again.fencing_token, first.fencing_token);
}

TEST(LockService, CheckReportsOwner) {
  LockService locks;
  auto none = LockService::parse_check_reply(locks.execute(LockService::make_check("L")));
  EXPECT_FALSE(none.held);
  locks.execute(LockService::make_acquire("L", 77));
  auto held = LockService::parse_check_reply(locks.execute(LockService::make_check("L")));
  EXPECT_TRUE(held.held);
  EXPECT_EQ(held.owner, 77u);
}

TEST(LockService, SnapshotPreservesTokensAndOwners) {
  LockService locks;
  locks.execute(LockService::make_acquire("A", 1));
  locks.execute(LockService::make_acquire("B", 2));
  LockService fresh;
  fresh.install(locks.snapshot());
  EXPECT_EQ(fresh.held_locks(), 2u);
  auto check = LockService::parse_check_reply(fresh.execute(LockService::make_check("B")));
  EXPECT_TRUE(check.held);
  EXPECT_EQ(check.owner, 2u);
  // Token counter continues, never reuses.
  locks.execute(LockService::make_release("A", 1));
  auto regrant = LockService::parse_acquire_reply(
      fresh.execute(LockService::make_acquire("C", 3)));
  EXPECT_GT(regrant.fencing_token, check.fencing_token);
}

TEST(NullService, ConcurrentExecuteCountsEveryRequest) {
  // Conflict-free requests run concurrently under the parallel executor;
  // the counter must not lose increments (it used to be a plain u64).
  NullService service;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) service.execute({});
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(service.executed(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(LockService, HeldLocksProbeIsThreadSafe) {
  // Tests/benches probe held_locks() while the cluster executes; the
  // probe must be race-free against execute() (TSan job covers this).
  LockService locks;
  std::atomic<bool> stop{false};
  std::size_t observed = 0;
  std::thread prober([&] {
    while (!stop.load(std::memory_order_relaxed)) observed += locks.held_locks();
  });
  for (int i = 0; i < 2000; ++i) {
    const std::string name = "L" + std::to_string(i % 8);
    locks.execute(LockService::make_acquire(name, 1));
    locks.execute(LockService::make_release(name, 1));
  }
  stop.store(true, std::memory_order_relaxed);
  prober.join();
  EXPECT_EQ(locks.held_locks(), 0u);
  (void)observed;
}

}  // namespace
}  // namespace mcsmr::smr
