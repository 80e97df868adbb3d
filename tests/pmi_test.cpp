// Typed control-plane boards of pmi::Kvs: per-pair dead markers, endpoint
// cards, recovery records, lazy-connect mailboxes, and the three-outcome
// wait the channel recovery handshake parks in.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "pmi/pmi.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace {

using pmi::Kvs;
using pmi::WaitOutcome;

// Coroutine bodies take everything as parameters (copied into the frame):
// a capturing coroutine lambda would outlive its closure.

struct Joined {
  sim::Tick at = -1;
  const pmi::EndpointCard* card = nullptr;
};

sim::Task<void> join_card(sim::Simulator& sim, Kvs& kvs, std::uint64_t gen,
                          bool with_extras, Joined& out) {
  out.card = co_await kvs.get_card(0, 1, gen, with_extras);
  out.at = sim.now();
}

sim::Task<void> post_card_later(sim::Simulator& sim, Kvs& kvs,
                                std::uint64_t gen, pmi::EndpointCard card) {
  co_await sim.delay(sim::usec(3));
  kvs.post_card(0, 1, gen, std::move(card));
}

TEST(KvsBoards, DeadBoardIsDirectional) {
  sim::Simulator sim;
  Kvs kvs(sim);
  EXPECT_FALSE(kvs.pair_dead(0, 1));
  kvs.post_dead(0, 1);
  EXPECT_TRUE(kvs.pair_dead(0, 1));
  EXPECT_FALSE(kvs.pair_dead(1, 0));
  EXPECT_FALSE(kvs.pair_dead(0, 2));
  // A pair verdict convicts no rank: the obituary board is separate.
  EXPECT_FALSE(kvs.is_dead(0));
  EXPECT_FALSE(kvs.is_dead(1));
  EXPECT_EQ(kvs.obit_version(), 0u);
  kvs.post_dead(0, 1);  // idempotent
  EXPECT_TRUE(kvs.pair_dead(0, 1));
  EXPECT_EQ(kvs.size(), 0u);  // typed boards are not string entries
}

TEST(KvsBoards, CardOfGenerationIsInvisibleToNextGeneration) {
  sim::Simulator sim;
  Kvs kvs(sim);
  pmi::EndpointCard card;
  card.qpn = 7;
  card.ring_addr = 0x1000;
  card.ring_rkey = 3;
  kvs.post_card(0, 1, 4, card);
  ASSERT_NE(kvs.find_card(0, 1, 4), nullptr);
  EXPECT_EQ(kvs.find_card(0, 1, 4)->qpn, 7u);
  EXPECT_EQ(kvs.find_card(0, 1, 5), nullptr);
  EXPECT_EQ(kvs.find_card(1, 0, 4), nullptr);  // the reverse direction

  // A blocking reader of generation 5 is not released by a re-post of
  // generation 4, only by generation 5 itself.
  Joined joined;
  card.qpn = 8;
  sim.spawn(join_card(sim, kvs, 5, false, joined));
  sim.spawn(post_card_later(sim, kvs, 4, card));
  sim.run_until(sim::usec(5));  // run() would report the parked reader
  EXPECT_EQ(joined.card, nullptr);
  EXPECT_EQ(joined.at, -1);
  card.qpn = 9;
  sim.spawn(post_card_later(sim, kvs, 5, card));
  sim.run();
  ASSERT_NE(joined.card, nullptr);
  EXPECT_EQ(joined.at, sim::usec(8));
  EXPECT_EQ(joined.card->qpn, 9u);
  EXPECT_EQ(kvs.find_card(0, 1, 4)->qpn, 8u);
}

TEST(KvsBoards, CardExtrasGateTheirReader) {
  sim::Simulator sim;
  Kvs kvs(sim);
  kvs.post_card(0, 1, 0, pmi::EndpointCard{});
  Joined plain;
  Joined full;
  sim.spawn(join_card(sim, kvs, 0, false, plain));
  sim.spawn(join_card(sim, kvs, 0, true, full));
  pmi::EndpointCard extras = *kvs.find_card(0, 1, 0);
  extras.extras = true;
  extras.aux_qpns = {11, 12};
  sim.spawn(post_card_later(sim, kvs, 0, extras));
  sim.run();
  EXPECT_EQ(plain.at, 0);
  EXPECT_EQ(full.at, sim::usec(3));
  ASSERT_NE(full.card, nullptr);
  EXPECT_EQ(full.card->aux_qpns, (std::vector<std::uint32_t>{11, 12}));
}

TEST(KvsBoards, MailboxIsFifoWithStableReference) {
  sim::Simulator sim;
  Kvs kvs(sim);
  const std::vector<pmi::LazyMail>& box = kvs.mailbox(2);
  EXPECT_TRUE(box.empty());
  for (std::uint64_t i = 0; i < 200; ++i) {
    kvs.post_mail(2, pmi::LazyMail{pmi::LazyMail::Op::kEvict,
                                   static_cast<int>(i % 5), i, 10 * i});
    kvs.post_mail(3, pmi::LazyMail{pmi::LazyMail::Op::kConnect, 0, i, 0});
  }
  EXPECT_EQ(&kvs.mailbox(2), &box);
  ASSERT_EQ(box.size(), 200u);
  for (std::uint64_t i = 0; i < box.size(); ++i) {
    EXPECT_EQ(box[i].gen, i);
    EXPECT_EQ(box[i].from, static_cast<int>(i % 5));
    EXPECT_EQ(box[i].consumed, 10 * i);
    EXPECT_EQ(box[i].op, pmi::LazyMail::Op::kEvict);
  }
  EXPECT_EQ(kvs.mailbox(3).size(), 200u);
  EXPECT_EQ(kvs.size(), 0u);
}

/// Runs one recovery wait by rank 0 for rank 1's epoch-1 record while the
/// `peer` process publishes whatever it does, and reports the outcome, when
/// the wait returned, and how many events the run dispatched.
struct WaitRun {
  WaitOutcome outcome = WaitOutcome::kDeadline;
  sim::Tick at = -1;
  std::size_t events = 0;
};

sim::Task<void> wait_for_peer(sim::Simulator& sim, Kvs& kvs,
                              sim::Tick deadline, WaitRun& out) {
  out.outcome = co_await kvs.wait_recovery(1, 0, 1, deadline);
  out.at = sim.now();
}

template <class Peer>
WaitRun run_wait(sim::Tick deadline, Peer peer) {
  sim::Simulator sim;
  Kvs kvs(sim);
  WaitRun r;
  sim.spawn(wait_for_peer(sim, kvs, deadline, r));
  sim.spawn(peer(sim, kvs));
  sim.run();
  r.events = sim.events_processed();
  return r;
}

TEST(KvsWait, EveryOutcomeIsReachable) {
  const sim::Tick deadline = sim::usec(50);
  const WaitRun published =
      run_wait(deadline, [](sim::Simulator& sim, Kvs& kvs) -> sim::Task<void> {
        co_await sim.delay(sim::usec(5));
        kvs.post_recovery(1, 0, 2, pmi::RecoveryRecord{4, 0});  // wrong epoch
        kvs.post_recovery(0, 1, 1, pmi::RecoveryRecord{4, 0});  // wrong way
        co_await sim.delay(sim::usec(5));
        kvs.post_recovery(1, 0, 1, pmi::RecoveryRecord{5, 64});
      });
  EXPECT_EQ(published.outcome, WaitOutcome::kPublished);
  EXPECT_EQ(published.at, sim::usec(10));

  const WaitRun dead =
      run_wait(deadline, [](sim::Simulator& sim, Kvs& kvs) -> sim::Task<void> {
        co_await sim.delay(sim::usec(5));
        kvs.post_dead(0, 1);  // the other direction does not release
        kvs.post_obit(1);     // nor does an obituary
        co_await sim.delay(sim::usec(5));
        kvs.post_dead(1, 0);
      });
  EXPECT_EQ(dead.outcome, WaitOutcome::kPeerDead);
  EXPECT_EQ(dead.at, sim::usec(10));

  const WaitRun timeout =
      run_wait(deadline, [](sim::Simulator& sim, Kvs& kvs) -> sim::Task<void> {
        co_await sim.delay(sim::usec(5));
        kvs.put("unrelated", "1");
      });
  EXPECT_EQ(timeout.outcome, WaitOutcome::kDeadline);
  EXPECT_EQ(timeout.at, deadline);

  // A record published alongside the dead marker wins: the handshake can
  // still complete.
  const WaitRun both =
      run_wait(deadline, [](sim::Simulator& sim, Kvs& kvs) -> sim::Task<void> {
        co_await sim.delay(sim::usec(5));
        kvs.post_dead(1, 0);
        kvs.post_recovery(1, 0, 1, pmi::RecoveryRecord{5, 64});
      });
  EXPECT_EQ(both.outcome, WaitOutcome::kPublished);
}

TEST(KvsWait, BoundedWaitSchedulesExactlyOneDeadlineEvent) {
  auto peer = [](sim::Simulator& sim, Kvs& kvs) -> sim::Task<void> {
    co_await sim.delay(sim::usec(5));
    kvs.put("noise", "1");  // a publication that re-tests the predicates
    co_await sim.delay(sim::usec(5));
    kvs.post_recovery(1, 0, 1, pmi::RecoveryRecord{5, 64});
  };
  const WaitRun unbounded = run_wait(Kvs::kNoDeadline, peer);
  const WaitRun bounded = run_wait(sim::usec(50), peer);
  EXPECT_EQ(unbounded.outcome, WaitOutcome::kPublished);
  EXPECT_EQ(bounded.outcome, WaitOutcome::kPublished);
  EXPECT_EQ(bounded.at, unbounded.at);
  EXPECT_EQ(bounded.events, unbounded.events + 1);
}

}  // namespace
