#include "paxos/engine.hpp"

#include <gtest/gtest.h>

#include "engine_harness.hpp"

namespace mcsmr::paxos {
namespace {

using testing::Cluster;

Bytes batch_of(std::uint8_t marker) {
  return encode_batch({Request{marker, 1, Bytes{marker}}});
}

/// The Accepts among an engine's effects: addressees of SendTo{Accept}
/// and the number of BroadcastMsg{Accept}.
struct AcceptEffects {
  std::vector<ReplicaId> sent_to;
  int broadcasts = 0;
  bool delivered = false;
};
AcceptEffects accepts_in(const std::vector<Effect>& effects) {
  AcceptEffects found;
  for (const auto& effect : effects) {
    if (const auto* send = std::get_if<SendTo>(&effect)) {
      if (std::holds_alternative<Accept>(send->message)) found.sent_to.push_back(send->to);
    } else if (const auto* broadcast = std::get_if<BroadcastMsg>(&effect)) {
      if (std::holds_alternative<Accept>(broadcast->message)) ++found.broadcasts;
    } else if (std::holds_alternative<Deliver>(effect)) {
      found.delivered = true;
    }
  }
  return found;
}

/// Take the first pending message matching `pred` off the network and
/// hand it to its addressee; returns the effects it produced (already
/// absorbed into the cluster, so their messages are pending).
template <typename Pred>
AcceptEffects deliver_first(Cluster& cluster, Pred pred) {
  for (std::size_t i = 0; i < cluster.pending_count(); ++i) {
    const testing::PendingMessage pm = cluster.pending()[i];
    if (!pred(pm)) continue;
    cluster.drop_one(i);
    std::vector<Effect> out;
    cluster.engine(pm.to).on_message(pm.from, pm.message, out);
    AcceptEffects found = accepts_in(out);
    cluster.absorb(pm.to, out);
    return found;
  }
  ADD_FAILURE() << "no pending message matched";
  return {};
}

bool is_propose_to(const testing::PendingMessage& pm, ReplicaId to) {
  return pm.to == to && std::holds_alternative<Propose>(pm.message);
}

TEST(Engine, InitialLeaderElection) {
  Cluster cluster(3);
  cluster.start();
  cluster.settle();
  EXPECT_TRUE(cluster.engine(0).is_leader());
  EXPECT_EQ(cluster.engine(0).view(), 0u);
  EXPECT_FALSE(cluster.engine(1).is_leader());
  EXPECT_FALSE(cluster.engine(2).is_leader());
  EXPECT_EQ(cluster.engine(1).leader(), 0u);
}

TEST(Engine, SingleReplicaDecidesAlone) {
  Cluster cluster(1);
  cluster.start();
  EXPECT_TRUE(cluster.engine(0).is_leader());
  EXPECT_TRUE(cluster.offer_batch(0, batch_of(7)));
  ASSERT_EQ(cluster.delivered(0).size(), 1u);
  EXPECT_EQ(cluster.delivered(0)[0].instance, 0u);
}

TEST(Engine, OrderAndDeliverOneBatch) {
  Cluster cluster(3);
  cluster.start();
  cluster.settle();
  ASSERT_TRUE(cluster.offer_batch(0, batch_of(9)));
  cluster.settle();
  for (ReplicaId id = 0; id < 3; ++id) {
    ASSERT_EQ(cluster.delivered(id).size(), 1u) << "replica " << id;
    EXPECT_EQ(cluster.delivered(id)[0].instance, 0u);
    EXPECT_EQ(decode_batch(cluster.delivered(id)[0].value)[0].payload, Bytes{9});
  }
}

TEST(Engine, NonLeaderRejectsBatches) {
  Cluster cluster(3);
  cluster.start();
  cluster.settle();
  EXPECT_FALSE(cluster.offer_batch(1, batch_of(1)));
  EXPECT_FALSE(cluster.offer_batch(2, batch_of(1)));
}

TEST(Engine, WindowLimitBoundsOpenInstances) {
  Cluster cluster(3, /*window=*/4);
  cluster.start();
  cluster.settle();
  // Stall the network: offers succeed until WND instances are open.
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (cluster.offer_batch(0, batch_of(static_cast<std::uint8_t>(i)))) ++accepted;
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(cluster.engine(0).window_in_use(), 4u);
  EXPECT_FALSE(cluster.engine(0).window_available());
  // Drain the network: instances decide, window frees, offers resume.
  cluster.settle();
  EXPECT_EQ(cluster.engine(0).window_in_use(), 0u);
  EXPECT_TRUE(cluster.offer_batch(0, batch_of(99)));
}

TEST(Engine, PipelinedBatchesDeliverInOrder) {
  Cluster cluster(3, 10);
  cluster.start();
  cluster.settle();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.offer_batch(0, batch_of(static_cast<std::uint8_t>(i))));
  }
  cluster.settle();
  for (ReplicaId id = 0; id < 3; ++id) {
    ASSERT_EQ(cluster.delivered(id).size(), 10u);
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_EQ(cluster.delivered(id)[i].instance, i);
      EXPECT_EQ(decode_batch(cluster.delivered(id)[i].value)[0].payload[0],
                static_cast<std::uint8_t>(i));
    }
  }
}

TEST(Engine, LeaderDecidesAfterOnePhase2b) {
  // n=3: leader's own accept + one Accept = quorum (paper §VI-D2).
  Cluster cluster(3);
  cluster.start();
  cluster.settle();
  cluster.offer_batch(0, batch_of(5));
  // Deliver exactly one Propose to replica 1 and its Accept back to 0.
  std::size_t safety_counter = 0;
  while (cluster.delivered(0).empty() && safety_counter++ < 100) {
    // Deliver only messages addressed to replica 0 or 1 (replica 2 dark).
    bool advanced = false;
    for (std::size_t i = 0; i < cluster.pending_count(); ++i) {
      if (cluster.pending()[i].to != 2) {
        cluster.deliver_one(i);
        advanced = true;
        break;
      }
    }
    if (!advanced) break;
  }
  EXPECT_EQ(cluster.delivered(0).size(), 1u)
      << "leader must decide from a single follower's 2b";
}

TEST(Engine, FollowerAcceptGoesToProposerOnlyAtQuorumTwo) {
  // n=3: the Propose carries the leader's vote, the follower adds its own
  // — quorum 2 — so the other follower needs nothing from it.
  Cluster cluster(3);
  cluster.start();
  cluster.settle();
  ASSERT_TRUE(cluster.offer_batch(0, batch_of(4)));
  const AcceptEffects effects =
      deliver_first(cluster, [](const auto& pm) { return is_propose_to(pm, 1); });
  EXPECT_EQ(effects.sent_to, std::vector<ReplicaId>{0});
  EXPECT_EQ(effects.broadcasts, 0);
  EXPECT_TRUE(effects.delivered) << "follower decides on the Propose alone";
  ASSERT_EQ(cluster.delivered(1).size(), 1u);
  EXPECT_EQ(decode_batch(cluster.delivered(1)[0].value)[0].payload, Bytes{4});
}

TEST(Engine, LeaderDecidesOnFirstAcceptAndIgnoresSecond) {
  Cluster cluster(3);
  cluster.start();
  cluster.settle();
  ASSERT_TRUE(cluster.offer_batch(0, batch_of(6)));
  deliver_first(cluster, [](const auto& pm) { return is_propose_to(pm, 1); });
  deliver_first(cluster, [](const auto& pm) { return is_propose_to(pm, 2); });
  ASSERT_EQ(cluster.pending_count(), 2u) << "exactly the two Accepts to the leader";
  for (const auto& pm : cluster.pending()) {
    EXPECT_EQ(pm.to, 0u);
    EXPECT_TRUE(std::holds_alternative<Accept>(pm.message));
  }
  const AcceptEffects first = deliver_first(cluster, [](const auto&) { return true; });
  EXPECT_TRUE(first.delivered);
  const AcceptEffects second = deliver_first(cluster, [](const auto&) { return true; });
  EXPECT_FALSE(second.delivered);
  EXPECT_EQ(cluster.delivered(0).size(), 1u);
  EXPECT_EQ(cluster.pending_count(), 0u);
}

TEST(Engine, ReproposalAcceptGoesToNewViewLeader) {
  // The old leader accepted instance 0 but nobody else saw it; replica 1
  // takes over, learns the value from the old leader's PrepareOk and
  // re-proposes it in view 1. Accepts must now go to replica 1.
  Cluster cluster(3);
  cluster.start();
  cluster.settle();
  ASSERT_TRUE(cluster.offer_batch(0, batch_of(8)));
  while (cluster.pending_count() > 0) cluster.drop_one(0);
  cluster.suspect(1);
  std::vector<AcceptEffects> reproposal_accepts;
  for (std::size_t steps = 0; cluster.pending_count() > 0 && steps < 100; ++steps) {
    const auto* propose = std::get_if<Propose>(&cluster.pending()[0].message);
    if (propose != nullptr && propose->view == 1) {
      reproposal_accepts.push_back(deliver_first(cluster, [](const auto&) { return true; }));
    } else {
      cluster.deliver_one();
    }
  }
  ASSERT_TRUE(cluster.engine(1).is_leader());
  ASSERT_EQ(reproposal_accepts.size(), 2u) << "one re-proposal to each of replicas 0 and 2";
  for (const auto& effects : reproposal_accepts) {
    EXPECT_EQ(effects.sent_to, std::vector<ReplicaId>{1});
    EXPECT_EQ(effects.broadcasts, 0);
  }
  for (ReplicaId id = 0; id < 3; ++id) {
    ASSERT_EQ(cluster.delivered(id).size(), 1u) << "replica " << id;
    EXPECT_EQ(decode_batch(cluster.delivered(id)[0].value)[0].payload, Bytes{8});
  }
}

TEST(Engine, AcceptStillBroadcastAtQuorumThree) {
  // n=5, quorum 3: leader + self is not enough, so a follower needs one
  // more follower's Accept and every follower must broadcast its own.
  Cluster cluster(5);
  cluster.start();
  cluster.settle();
  ASSERT_TRUE(cluster.offer_batch(0, batch_of(5)));
  const AcceptEffects at_1 =
      deliver_first(cluster, [](const auto& pm) { return is_propose_to(pm, 1); });
  EXPECT_TRUE(at_1.sent_to.empty());
  EXPECT_EQ(at_1.broadcasts, 1);
  EXPECT_FALSE(at_1.delivered) << "two votes are not a quorum of five";
  const AcceptEffects at_2 =
      deliver_first(cluster, [](const auto& pm) { return is_propose_to(pm, 2); });
  EXPECT_EQ(at_2.broadcasts, 1);
  EXPECT_FALSE(at_2.delivered);
  // Replica 2's Accept is the third vote replica 1 was missing.
  const AcceptEffects third = deliver_first(cluster, [](const auto& pm) {
    return pm.from == 2 && pm.to == 1 && std::holds_alternative<Accept>(pm.message);
  });
  EXPECT_TRUE(third.delivered);
  EXPECT_EQ(cluster.delivered(1).size(), 1u);
}

TEST(Engine, PeerMessagesPerDecidedInstance) {
  // n=3: 2 Proposes + 2 Accepts (to the leader only). n=5: 4 Proposes +
  // 4 followers x 4 broadcast Accepts.
  for (const auto& [n, per_instance] : {std::pair{3, 4u}, std::pair{5, 20u}}) {
    Cluster cluster(n, /*window=*/16);
    cluster.start();
    cluster.settle();
    const std::size_t before = cluster.peer_messages();
    constexpr int kInstances = 10;
    for (int i = 0; i < kInstances; ++i) {
      ASSERT_TRUE(cluster.offer_batch(0, batch_of(static_cast<std::uint8_t>(i))));
    }
    cluster.settle();
    for (ReplicaId id = 0; id < static_cast<ReplicaId>(n); ++id) {
      ASSERT_EQ(cluster.delivered(id).size(), static_cast<std::size_t>(kInstances));
    }
    EXPECT_EQ(cluster.peer_messages() - before, per_instance * kInstances) << "n=" << n;
  }
}

TEST(Engine, ViewChangeElectsNextReplica) {
  Cluster cluster(3);
  cluster.start();
  cluster.settle();
  cluster.suspect(1);  // replica 1 suspects leader 0
  cluster.settle();
  EXPECT_TRUE(cluster.engine(1).is_leader());
  EXPECT_EQ(cluster.engine(1).view(), 1u);
  // Old leader observed the higher view and stepped down.
  EXPECT_FALSE(cluster.engine(0).is_leader());
  EXPECT_EQ(cluster.engine(0).view(), 1u);
}

TEST(Engine, AcceptedValueSurvivesViewChange) {
  // Safety: a batch accepted by a quorum member must be decided by the new
  // leader, not lost.
  Cluster cluster(3);
  cluster.start();
  cluster.settle();
  cluster.offer_batch(0, batch_of(42));

  // Deliver the Propose to replica 1 only, then throw away all other
  // traffic (simulates leader crash after partial propagation).
  for (std::size_t i = 0; i < cluster.pending_count();) {
    auto& pm = cluster.pending()[i];
    if (pm.to == 1 && std::holds_alternative<Propose>(pm.message)) {
      cluster.deliver_one(i);
    } else {
      ++i;
    }
  }
  while (cluster.pending_count() > 0) cluster.drop_one(0);

  // Replica 1 takes over; its accepted (already decided) value survives.
  // Replica 2 learns it through heartbeat-driven catch-up.
  cluster.suspect(1);
  std::size_t safety_counter = 0;
  while (safety_counter++ < 20 && cluster.delivered(2).empty()) {
    // Deliver only between replicas 1 and 2 (old leader stays dark).
    bool advanced = true;
    while (advanced) {
      advanced = false;
      for (std::size_t i = 0; i < cluster.pending_count(); ++i) {
        auto& pm = cluster.pending()[i];
        if (pm.to != 0 && pm.from != 0) {
          cluster.deliver_one(i);
          advanced = true;
          break;
        } else {
          cluster.drop_one(i);
          advanced = true;
          break;
        }
      }
    }
    cluster.fire_heartbeats();
    cluster.fire_catchup_timers();
  }

  ASSERT_GE(cluster.delivered(1).size(), 1u) << "new leader kept the decided value";
  EXPECT_EQ(decode_batch(cluster.delivered(1)[0].value)[0].payload, Bytes{42});
  ASSERT_GE(cluster.delivered(2).size(), 1u);
  EXPECT_EQ(decode_batch(cluster.delivered(2)[0].value)[0].payload, Bytes{42});
}

TEST(Engine, GapFillWithNoopsOnViewChange) {
  Cluster cluster(3, 10);
  cluster.start();
  cluster.settle();
  // Open instances 0..2 but deliver only instance 2's Propose to replica 1.
  cluster.offer_batch(0, batch_of(10));
  cluster.offer_batch(0, batch_of(11));
  cluster.offer_batch(0, batch_of(12));
  for (std::size_t i = 0; i < cluster.pending_count();) {
    auto& pm = cluster.pending()[i];
    const auto* propose = std::get_if<Propose>(&pm.message);
    if (pm.to == 1 && propose != nullptr && propose->instance == 2) {
      cluster.deliver_one(i);
    } else {
      ++i;
    }
  }
  while (cluster.pending_count() > 0) cluster.drop_one(0);

  cluster.suspect(1);
  std::size_t safety_counter = 0;
  while (cluster.pending_count() > 0 && safety_counter++ < 1000) {
    bool advanced = false;
    for (std::size_t i = 0; i < cluster.pending_count(); ++i) {
      auto& pm = cluster.pending()[i];
      if (pm.to != 0 && pm.from != 0) {
        cluster.deliver_one(i);
        advanced = true;
        break;
      }
    }
    if (!advanced) break;
  }

  // Instances 0 and 1 were filled with no-ops; instance 2 kept its value.
  ASSERT_EQ(cluster.delivered(1).size(), 3u);
  EXPECT_TRUE(decode_batch(cluster.delivered(1)[0].value).empty());
  EXPECT_TRUE(decode_batch(cluster.delivered(1)[1].value).empty());
  EXPECT_EQ(decode_batch(cluster.delivered(1)[2].value)[0].payload, Bytes{12});
}

TEST(Engine, StaleMessagesIgnored) {
  Cluster cluster(3);
  cluster.start();
  cluster.settle();
  cluster.suspect(1);
  cluster.settle();
  ASSERT_TRUE(cluster.engine(1).is_leader());

  // A stale Propose from the deposed leader's view must be rejected.
  std::vector<Effect> out;
  cluster.engine(2).on_message(0, Propose{0, 50, batch_of(66)}, out);
  const AcceptEffects effects = accepts_in(out);
  EXPECT_TRUE(effects.sent_to.empty() && effects.broadcasts == 0)
      << "stale propose must not be accepted";
}

TEST(Engine, DuplicateMessagesAreIdempotent) {
  Cluster cluster(3);
  cluster.start();
  cluster.settle();
  cluster.offer_batch(0, batch_of(3));
  // Duplicate every message before delivering.
  for (std::size_t i = 0, n = cluster.pending_count(); i < n; ++i) cluster.duplicate_one(i);
  cluster.settle();
  for (ReplicaId id = 0; id < 3; ++id) {
    EXPECT_EQ(cluster.delivered(id).size(), 1u) << "replica " << id;
  }
}

TEST(Engine, CatchupRecoversDarkReplica) {
  Cluster cluster(3);
  cluster.start();
  cluster.settle();
  // Replica 2 misses everything for 5 batches.
  for (int i = 0; i < 5; ++i) {
    cluster.offer_batch(0, batch_of(static_cast<std::uint8_t>(i)));
    for (std::size_t j = 0; j < cluster.pending_count();) {
      if (cluster.pending()[j].to == 2 || cluster.pending()[j].from == 2) {
        cluster.drop_one(j);
      } else {
        cluster.deliver_one(j);
      }
    }
  }
  EXPECT_EQ(cluster.delivered(0).size(), 5u);
  EXPECT_EQ(cluster.delivered(2).size(), 0u);

  // Heartbeat tells replica 2 how far the leader is; catch-up pulls values.
  cluster.fire_heartbeats();
  cluster.settle();
  for (int round = 0; round < 5 && cluster.delivered(2).size() < 5; ++round) {
    cluster.fire_catchup_timers();
    cluster.settle();
  }
  ASSERT_EQ(cluster.delivered(2).size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(cluster.delivered(2)[i].value, cluster.delivered(0)[i].value);
  }
}

TEST(Engine, SnapshotOfferedWhenLogTruncated) {
  Cluster cluster(3);
  cluster.start();
  cluster.settle();
  for (int i = 0; i < 5; ++i) {
    cluster.offer_batch(0, batch_of(static_cast<std::uint8_t>(i)));
    for (std::size_t j = 0; j < cluster.pending_count();) {
      if (cluster.pending()[j].to == 2 || cluster.pending()[j].from == 2) {
        cluster.drop_one(j);
      } else {
        cluster.deliver_one(j);
      }
    }
  }

  // Leader snapshots at instance 5 and truncates its log; replica 1 too.
  cluster.engine(0).set_snapshot_provider(
      [] { return SnapshotData{5, shared_state_bytes(Bytes{0xAA}), Bytes{}}; });
  cluster.engine(1).set_snapshot_provider(
      [] { return SnapshotData{5, shared_state_bytes(Bytes{0xAA}), Bytes{}}; });
  std::vector<Effect> unused;
  cluster.engine(0).on_local_snapshot(5);
  cluster.engine(1).on_local_snapshot(5);

  cluster.fire_heartbeats();
  cluster.settle();
  for (int round = 0; round < 5; ++round) {
    cluster.fire_catchup_timers();
    cluster.settle();
  }

  auto it = cluster.snapshots_installed().find(2);
  ASSERT_NE(it, cluster.snapshots_installed().end()) << "replica 2 installed a snapshot";
  EXPECT_EQ(it->second.front(), 5u);
  EXPECT_EQ(cluster.engine(2).first_undecided(), 5u);
}

TEST(Engine, LeaderHeartbeatCarriesProgress) {
  Cluster cluster(3);
  cluster.start();
  cluster.settle();
  cluster.offer_batch(0, batch_of(1));
  cluster.settle();
  std::vector<Effect> out;
  cluster.engine(0).on_heartbeat_timer(out);
  ASSERT_FALSE(out.empty());
  const auto* broadcast = std::get_if<BroadcastMsg>(&out[0]);
  ASSERT_NE(broadcast, nullptr);
  const auto* hb = std::get_if<Heartbeat>(&broadcast->message);
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(hb->first_undecided, 1u);
  // Followers do not emit heartbeats.
  out.clear();
  cluster.engine(1).on_heartbeat_timer(out);
  EXPECT_TRUE(out.empty());
}

TEST(Engine, RepeatedSuspectEscalatesViews) {
  Cluster cluster(3);
  cluster.start();
  cluster.settle();
  cluster.suspect(1);
  cluster.settle();
  EXPECT_TRUE(cluster.engine(1).is_leader());
  EXPECT_EQ(cluster.engine(1).view(), 1u);
  cluster.suspect(2);
  cluster.settle();
  EXPECT_TRUE(cluster.engine(2).is_leader());
  EXPECT_EQ(cluster.engine(2).view(), 2u);
  cluster.suspect(0);
  cluster.settle();
  EXPECT_TRUE(cluster.engine(0).is_leader());
  EXPECT_EQ(cluster.engine(0).view(), 3u);
}

TEST(Engine, OrderingContinuesAcrossViewChange) {
  Cluster cluster(3);
  cluster.start();
  cluster.settle();
  cluster.offer_batch(0, batch_of(1));
  cluster.settle();
  cluster.suspect(1);
  cluster.settle();
  ASSERT_TRUE(cluster.engine(1).is_leader());
  cluster.offer_batch(1, batch_of(2));
  cluster.settle();
  for (ReplicaId id = 0; id < 3; ++id) {
    ASSERT_EQ(cluster.delivered(id).size(), 2u) << "replica " << id;
    EXPECT_EQ(decode_batch(cluster.delivered(id)[0].value)[0].payload, Bytes{1});
    EXPECT_EQ(decode_batch(cluster.delivered(id)[1].value)[0].payload, Bytes{2});
  }
}

}  // namespace
}  // namespace mcsmr::paxos
