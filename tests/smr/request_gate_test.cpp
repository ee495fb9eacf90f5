// Unit tests for the request admission gate shared by the ClientIo
// implementations: redirect, cached-duplicate service, in-flight retry
// suppression, and backpressure forwarding.
#include "smr/request_gate.hpp"

#include <gtest/gtest.h>

namespace mcsmr::smr {
namespace {

struct GateRig {
  GateRig() : requests(8, "req"), cache(8, /*admitted_ttl_ns=*/50 * kMillis), shared(3),
              gate(config, {RequestGate::Intake{&requests, &cache}}, nullptr, shared) {
    shared.is_leader.store(true);
    shared.view.store(0);
  }

  ClientRequestFrame frame(paxos::ClientId client, paxos::RequestSeq seq) {
    return ClientRequestFrame{client, seq, 7, Bytes{1, 2, 3}};
  }

  Config config;
  RequestQueue requests;
  ReplyCache cache;
  SharedState shared;
  RequestGate gate;
};

TEST(RequestGate, ForwardsNewRequests) {
  GateRig rig;
  auto outcome = rig.gate.admit(rig.frame(1, 1));
  EXPECT_EQ(outcome.action, RequestGate::Action::kForwarded);
  auto queued = rig.requests.try_pop();
  ASSERT_TRUE(queued.has_value());
  EXPECT_EQ(queued->client_id, 1u);
  EXPECT_EQ(queued->seq, 1u);
  EXPECT_EQ(queued->payload, (Bytes{1, 2, 3}));
}

TEST(RequestGate, RedirectsWhenNotLeader) {
  GateRig rig;
  rig.shared.is_leader.store(false);
  rig.shared.view.store(2);  // leader of view 2 is replica 2
  auto outcome = rig.gate.admit(rig.frame(1, 1));
  EXPECT_EQ(outcome.action, RequestGate::Action::kReplyNow);
  EXPECT_EQ(outcome.reply.status, ReplyStatus::kRedirect);
  EXPECT_EQ(decode_leader_hint(outcome.reply.payload).value_or(99), 2u);
  EXPECT_FALSE(rig.requests.try_pop().has_value()) << "must not enqueue";
  EXPECT_EQ(rig.shared.redirected_requests.load(), 1u);
}

TEST(RequestGate, ServesCachedDuplicate) {
  GateRig rig;
  rig.cache.update(1, 5, Bytes{9, 9});
  auto outcome = rig.gate.admit(rig.frame(1, 5));
  EXPECT_EQ(outcome.action, RequestGate::Action::kReplyNow);
  EXPECT_EQ(outcome.reply.status, ReplyStatus::kOk);
  EXPECT_EQ(outcome.reply.payload, (Bytes{9, 9}));
  EXPECT_EQ(rig.shared.cached_replies.load(), 1u);
}

TEST(RequestGate, DropsOldAndInFlightRetries) {
  GateRig rig;
  rig.cache.update(1, 5, Bytes{1});
  EXPECT_EQ(rig.gate.admit(rig.frame(1, 3)).action, RequestGate::Action::kDrop) << "old seq";

  EXPECT_EQ(rig.gate.admit(rig.frame(2, 1)).action, RequestGate::Action::kForwarded);
  EXPECT_EQ(rig.gate.admit(rig.frame(2, 1)).action, RequestGate::Action::kDrop)
      << "retry of an admitted request must not re-order";
}

TEST(RequestGate, ExpiredAdmitAllowsReordering) {
  GateRig rig;  // 50 ms admitted TTL
  EXPECT_EQ(rig.gate.admit(rig.frame(3, 1)).action, RequestGate::Action::kForwarded);
  std::this_thread::sleep_for(std::chrono::milliseconds(70));
  EXPECT_EQ(rig.gate.admit(rig.frame(3, 1)).action, RequestGate::Action::kForwarded)
      << "lost request's retry must be admitted after the TTL";
}

TEST(RequestGate, DropsWhenQueueClosed) {
  GateRig rig;
  rig.requests.close();
  EXPECT_EQ(rig.gate.admit(rig.frame(1, 1)).action, RequestGate::Action::kDrop);
}

TEST(ClientRegistry, PutGetErase) {
  ClientRegistry<int> registry(4);
  EXPECT_FALSE(registry.get(1).has_value());
  registry.put(1, 42);
  EXPECT_EQ(registry.get(1).value_or(0), 42);
  registry.put(1, 43);  // overwrite (reconnect)
  EXPECT_EQ(registry.get(1).value_or(0), 43);
  registry.erase(1);
  EXPECT_FALSE(registry.get(1).has_value());
}

TEST(ClientRegistry, ManyClientsAcrossShards) {
  ClientRegistry<std::uint64_t> registry(8);
  for (std::uint64_t c = 0; c < 500; ++c) registry.put(c, c * 2);
  for (std::uint64_t c = 0; c < 500; ++c) EXPECT_EQ(registry.get(c).value_or(0), c * 2);
}

}  // namespace
}  // namespace mcsmr::smr
