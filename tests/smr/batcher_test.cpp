// Unit tests for the Batcher thread (§V-C1): batch formation off the
// critical path, timeout flushing, early close on pipeline room, and
// shutdown draining.
#include "smr/batcher.hpp"

#include <gtest/gtest.h>

#include "common/clock.hpp"
#include "paxos/messages.hpp"

namespace mcsmr::smr {
namespace {

struct BatcherRig {
  explicit BatcherRig(Config config)
      : cfg(config), requests(config.request_queue_cap, "req"),
        proposals(config.proposal_queue_cap, "prop"),
        dispatcher(kDispatcherQueueCap, "disp"), shared(config.n),
        batcher(cfg, requests, proposals, dispatcher, shared) {
    shared.is_leader.store(true);
    batcher.start();
  }
  ~BatcherRig() {
    requests.close();
    proposals.close();
    batcher.stop();
  }

  paxos::Request request(std::size_t bytes, paxos::RequestSeq seq = 1) {
    return paxos::Request{1, seq, Bytes(bytes, 0xAB)};
  }

  Config cfg;
  RequestQueue requests;
  ProposalQueue proposals;
  DispatcherQueue dispatcher;
  SharedState shared;
  Batcher batcher;
};

TEST(Batcher, FullBatchShipsWithoutTimeout) {
  Config config;
  config.batch_max_bytes = 1300;
  config.batch_timeout_ns = 10 * kSeconds;  // timeout can't be the trigger
  config.window_size = 0;                   // window full: no early close
  BatcherRig rig(config);

  // 9 x 128B requests overflow one 1300-byte batch.
  for (int i = 0; i < 9; ++i) {
    rig.requests.push(rig.request(128, static_cast<paxos::RequestSeq>(i)));
  }
  auto batch = rig.proposals.pop_for(2 * kSeconds);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(paxos::decode_batch(*batch).size(), 8u);
}

TEST(Batcher, TimeoutFlushesPartialBatch) {
  Config config;
  config.batch_timeout_ns = 30 * kMillis;
  config.window_size = 0;  // suppress early close; only the timeout fires
  BatcherRig rig(config);

  rig.requests.push(rig.request(128));
  const auto t0 = mono_ns();
  auto batch = rig.proposals.pop_for(2 * kSeconds);
  ASSERT_TRUE(batch.has_value());
  EXPECT_GE(mono_ns() - t0, 20 * kMillis) << "flushed before the timeout";
  EXPECT_EQ(paxos::decode_batch(*batch).size(), 1u);
}

TEST(Batcher, EarlyCloseWhenWindowHasRoom) {
  // §V-C1: with pipeline room and an empty ProposalQueue, a partial batch
  // ships immediately instead of waiting out its timeout.
  Config config;
  config.batch_timeout_ns = 10 * kSeconds;
  config.window_size = 10;  // room available
  BatcherRig rig(config);
  rig.shared.window_in_use.store(0);

  rig.requests.push(rig.request(128));
  const auto t0 = mono_ns();
  auto batch = rig.proposals.pop_for(2 * kSeconds);
  ASSERT_TRUE(batch.has_value());
  EXPECT_LT(mono_ns() - t0, kSeconds) << "early close did not fire";
}

TEST(Batcher, NoEarlyCloseWhenWindowFull) {
  Config config;
  config.batch_timeout_ns = 80 * kMillis;
  config.window_size = 4;
  BatcherRig rig(config);
  rig.shared.window_in_use.store(4);  // pipeline saturated

  rig.requests.push(rig.request(128));
  const auto t0 = mono_ns();
  auto batch = rig.proposals.pop_for(2 * kSeconds);
  ASSERT_TRUE(batch.has_value());
  EXPECT_GE(mono_ns() - t0, 60 * kMillis)
      << "batch shipped early although the window was full";
}

TEST(Batcher, DrainsOnClose) {
  Config config;
  config.batch_timeout_ns = 10 * kSeconds;
  config.window_size = 0;
  auto rig = std::make_unique<BatcherRig>(config);
  rig->requests.push(rig->request(128));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  rig->requests.close();  // shutdown path: pending request must still ship
  auto batch = rig->proposals.pop_for(2 * kSeconds);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(paxos::decode_batch(*batch).size(), 1u);
}

TEST(Batcher, SignalsDispatcherOnShip) {
  Config config;
  config.window_size = 10;
  BatcherRig rig(config);
  rig.requests.push(rig.request(128));
  ASSERT_TRUE(rig.proposals.pop_for(2 * kSeconds).has_value());
  // A ProposalReadyEvent wake-up should have been posted.
  auto event = rig.dispatcher.pop_for(kSeconds);
  ASSERT_TRUE(event.has_value());
  EXPECT_TRUE(std::holds_alternative<ProposalReadyEvent>(*event));
}

TEST(Batcher, CountsBatches) {
  Config config;
  config.window_size = 10;
  BatcherRig rig(config);
  for (int i = 0; i < 5; ++i) {
    rig.requests.push(rig.request(128, static_cast<paxos::RequestSeq>(i)));
    ASSERT_TRUE(rig.proposals.pop_for(2 * kSeconds).has_value());
  }
  EXPECT_GE(rig.batcher.batches_built(), 5u);
}

}  // namespace
}  // namespace mcsmr::smr
