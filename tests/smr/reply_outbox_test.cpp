// The reply hand-off (smr/reply_outbox.hpp) under concurrent producers and
// one draining IO thread whose wakes arrive late or fail:
//   * every reply is delivered exactly once and none is stranded — after
//     each round of pushes the drainer catches up with no later push to
//     rescue a reply that missed both a drain and a wake;
//   * never more wakes than pushes;
//   * a full queue with a stalled drainer drops and counts after the push
//     budget, and close() releases a producer blocked on it.
// Run under ThreadSanitizer via -DMCSMR_SANITIZE=thread (CI tsan job).
#include "smr/reply_outbox.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>
#include <vector>

namespace mcsmr::smr {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr int kScale = 1;  // TSan runs ~10x slower
#else
constexpr int kScale = 10;
#endif

ClientReplyFrame reply(std::uint64_t id) { return {id, id, ReplyStatus::kOk, Bytes{}}; }

/// Spin until `done()`, yielding after a while so an oversubscribed host
/// still makes progress.
template <typename Done>
void spin_until(Done done) {
  for (int spins = 0; !done(); ++spins) {
    if (spins > 4096) std::this_thread::yield();
  }
}

/// Up to `max` iterations of nothing, to vary two threads' relative timing.
void delay(std::minstd_rand& rng, unsigned max) {
  for (unsigned spin = max == 0 ? 0 : rng() % max; spin > 0; --spin) {
    std::atomic_signal_fence(std::memory_order_seq_cst);
  }
}

/// An outbox and a stand-in IO thread. A wake is a token the drainer
/// answers with on_wake() after a random delay of up to `late_spins`; a
/// `fail_percent` share of wakes fails (as a SimNet inject into a full
/// inbox does) unless `force_wakes` is set.
struct Rig {
  explicit Rig(QueueImpl impl, unsigned max_late_spins = 0, unsigned fail_share = 0)
      : late_spins(max_late_spins), fail_percent(fail_share),
        outbox(impl, "ReplyQueue-test", shared, [this] { return wake(); }) {}
  ~Rig() {
    stop = true;
    if (drainer.joinable()) drainer.join();
  }

  bool wake() {
    ++wakes;
    thread_local std::minstd_rand rng(std::hash<std::thread::id>{}(std::this_thread::get_id()));
    if (!force_wakes && rng() % 100 < fail_percent) return false;
    ++tokens;
    return true;
  }

  void start_drainer() {
    drainer = std::thread([this] {
      std::minstd_rand rng(7);
      while (!stop) {
        if (tokens.load() == 0) {
          std::this_thread::yield();
          continue;
        }
        --tokens;
        delay(rng, late_spins);
        outbox.on_wake([this](const ClientReplyFrame& r) {
          if (seen.size() <= r.client_id) seen.resize(r.client_id + 1, 0);
          ++seen[r.client_id];
          ++delivered;
        });
      }
    });
  }

  const unsigned late_spins;
  const unsigned fail_percent;
  SharedState shared{3};
  ReplyOutbox outbox;
  std::atomic<bool> force_wakes{false};
  std::atomic<bool> stop{false};
  std::atomic<int> tokens{0};
  std::atomic<std::uint64_t> wakes{0};
  std::atomic<std::uint64_t> delivered{0};
  std::vector<int> seen;  // deliveries per reply id; drainer thread only
  std::thread drainer;
};

/// Three producers push four replies each per round; after every round
/// the drainer must deliver all of them. With failing wakes a round may
/// legitimately end on an undelivered wake, so `sentinel` adds one push
/// whose wake goes through: a failed wake must have re-armed the flag.
void run_rounds(Rig& rig, int rounds, bool sentinel) {
  constexpr int kProducers = 3, kPerRound = 4;
  std::atomic<int> round{0};
  std::atomic<int> finished{0};
  std::atomic<std::uint64_t> pushed{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int r = 1; r <= rounds; ++r) {
        spin_until([&] { return round.load() >= r; });
        for (int i = 0; i < kPerRound; ++i) rig.outbox.push(reply(pushed++));
        ++finished;
      }
    });
  }
  rig.start_drainer();
  int stranded_round = 0;
  for (int r = 1; r <= rounds && stranded_round == 0; ++r) {
    round = r;
    spin_until([&] { return finished.load() >= r * kProducers; });
    if (sentinel) {
      rig.force_wakes = true;
      rig.outbox.push(reply(pushed++));
      rig.force_wakes = false;
    }
    const std::uint64_t deadline = mono_ns() + 2 * kSeconds;
    spin_until([&] { return rig.delivered.load() == pushed.load() || mono_ns() > deadline; });
    if (rig.delivered.load() != pushed.load()) stranded_round = r;
  }
  round = rounds;  // after a failed round, let the producers finish
  for (auto& t : producers) t.join();
  ASSERT_EQ(stranded_round, 0) << "a reply was stranded with no wake coming";

  rig.stop = true;
  rig.drainer.join();
  ASSERT_EQ(rig.seen.size(), pushed.load());
  EXPECT_EQ(static_cast<std::size_t>(std::count(rig.seen.begin(), rig.seen.end(), 1)),
            rig.seen.size())
      << "a reply was delivered twice";
  EXPECT_LE(rig.wakes.load(), pushed.load()) << "more wakes than pushes";
  EXPECT_EQ(rig.shared.reply_wakeups.load(), rig.wakes.load());
  EXPECT_EQ(rig.shared.dropped_replies.load(), 0u);
}

class ReplyOutboxTest : public ::testing::TestWithParam<QueueImpl> {};

TEST_P(ReplyOutboxTest, PromptWakesDeliverEveryReplyOnce) {
  Rig rig(GetParam());
  run_rounds(rig, 2000 * kScale, /*sentinel=*/false);
}

TEST_P(ReplyOutboxTest, LateWakesDeliverEveryReplyOnce) {
  Rig rig(GetParam(), /*late_spins=*/2000);
  run_rounds(rig, 1000 * kScale, /*sentinel=*/false);
}

TEST_P(ReplyOutboxTest, FailedWakesReArmTheFlag) {
  Rig rig(GetParam(), /*late_spins=*/500, /*fail_percent=*/30);
  run_rounds(rig, 500 * kScale, /*sentinel=*/true);
}

// The two halves of the protocol raced head-on: a wake is pending and the
// queue is empty; one thread pushes while the IO thread runs on_wake().
// Either the drain takes the reply or the push sees the clear and wakes
// again — never neither.
TEST_P(ReplyOutboxTest, PushRacingTheClearNeverStrandsAReply) {
  Rig rig(GetParam());  // this test drives the IO side itself
  const auto discard = [](const ClientReplyFrame&) {};
  const int iterations = 20000 * kScale;
  std::atomic<int> go{0};
  std::atomic<int> done{0};
  std::atomic<bool> drained{false};
  std::thread io([&] {
    std::minstd_rand rng(3);
    for (int i = 1; i <= iterations; ++i) {
      spin_until([&] { return go.load() >= i; });
      delay(rng, 256);
      rig.outbox.on_wake([&](const ClientReplyFrame&) { drained = true; });
      done = i;
    }
  });
  std::minstd_rand rng(5);
  int stranded = 0;
  for (int i = 1; i <= iterations; ++i) {
    rig.outbox.push(reply(0));  // sets the flag: a wake is pending...
    rig.outbox.drain(discard);  // ...and the queue is empty
    drained = false;
    const std::uint64_t wakes_before = rig.wakes.load();
    go = i;
    delay(rng, 256);
    rig.outbox.push(reply(1));
    spin_until([&] { return done.load() >= i; });
    if (!drained && rig.wakes.load() == wakes_before) ++stranded;
    rig.outbox.on_wake(discard);  // reset: flag clear, queue empty
  }
  io.join();
  EXPECT_EQ(stranded, 0) << "of " << iterations << " races";
}

TEST_P(ReplyOutboxTest, FullQueueDropsAfterTheBudget) {
  Rig rig(GetParam());  // no drainer: the IO thread is stalled
  for (std::uint64_t id = 0; id < ReplyOutbox::kQueueCap; ++id) rig.outbox.push(reply(id));
  EXPECT_EQ(rig.wakes.load(), 1u) << "one wake per burst";

  const std::uint64_t t0 = mono_ns();
  rig.outbox.push(reply(ReplyOutbox::kQueueCap));
  EXPECT_GE(mono_ns() - t0, kReplyPushBudgetNs * 9 / 10);
  EXPECT_EQ(rig.shared.dropped_replies.load(), 1u);

  std::uint64_t next = 0;
  rig.outbox.on_wake([&](const ClientReplyFrame& r) { EXPECT_EQ(r.client_id, next++); });
  EXPECT_EQ(next, ReplyOutbox::kQueueCap) << "the dropped reply must not be queued";
}

TEST_P(ReplyOutboxTest, CloseReleasesABlockedProducer) {
  Rig rig(GetParam());
  for (std::uint64_t id = 0; id < ReplyOutbox::kQueueCap; ++id) rig.outbox.push(reply(id));
  std::uint64_t blocked_ns = 0;
  std::thread producer([&] {
    const std::uint64_t t0 = mono_ns();
    rig.outbox.push(reply(ReplyOutbox::kQueueCap));  // blocks on the full queue
    blocked_ns = mono_ns() - t0;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  rig.outbox.close();
  producer.join();
  EXPECT_LT(blocked_ns, kReplyPushBudgetNs) << "close() did not release the producer";
  EXPECT_EQ(rig.shared.dropped_replies.load(), 1u);
  rig.outbox.push(reply(0));  // after close: an immediate counted drop
  EXPECT_EQ(rig.shared.dropped_replies.load(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ReplyOutboxTest,
                         ::testing::Values(QueueImpl::kMutex, QueueImpl::kRing),
                         [](const ::testing::TestParamInfo<QueueImpl>& param_info) {
                           return std::string(to_string(param_info.param));
                         });

}  // namespace
}  // namespace mcsmr::smr
