// Tests for the multi-method channel (Figure 1): shared memory for
// intra-node pairs, InfiniBand zero-copy for inter-node pairs, under one
// channel interface and one MPI stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "channel_test_util.hpp"
#include "ib/fabric.hpp"
#include "mpi/runtime.hpp"
#include "pmi/pmi.hpp"
#include "nas/nas.hpp"
#include "rdmach/multi_method_channel.hpp"
#include "sim/rng.hpp"

namespace rdmach {
namespace {

using testutil::FaultPlan;
using testutil::recv_all;
using testutil::send_all;

TEST(MultiMethod, RoutesLocalPeersThroughSharedMemory) {
  // 4 ranks on 2 nodes: (0,1) on node0, (2,3) on node1.
  sim::Simulator sim;
  ib::Fabric fabric(sim);
  pmi::Job job(fabric, 4, /*ranks_per_node=*/2);
  ChannelConfig cfg;
  cfg.design = Design::kMultiMethod;
  std::vector<std::unique_ptr<Channel>> chans(4);
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    chans[ctx.rank] = Channel::create(ctx, cfg);
    co_await chans[ctx.rank]->init();
    auto* mm = static_cast<MultiMethodChannel*>(chans[ctx.rank].get());
    const int buddy = ctx.rank ^ 1;         // same node
    const int across = (ctx.rank + 2) % 4;  // other node
    EXPECT_TRUE(mm->is_local(buddy));
    EXPECT_FALSE(mm->is_local(across));
    co_await chans[ctx.rank]->finalize();
  });
  sim.run();
}

TEST(MultiMethod, ResetStatsZeroesMemberCounters) {
  // stats() sums the shm and net members' monotone counters; before
  // reset_stats() forwarded to them, "resetting" the facade left the
  // members counting and every post-reset delta included the whole
  // bootstrap.  A reset right after traffic must therefore zero the
  // summed ops/bytes, and fresh traffic afterwards must count from zero.
  sim::Simulator sim;
  ib::Fabric fabric(sim);
  pmi::Job job(fabric, 4, 2);
  ChannelConfig cfg;
  cfg.design = Design::kMultiMethod;
  std::vector<std::unique_ptr<Channel>> chans(4);
  bool checked = false;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    chans[ctx.rank] = Channel::create(ctx, cfg);
    Channel& ch = *chans[ctx.rank];
    co_await ch.init();
    const int buddy = ctx.rank ^ 1;  // same node: shm member
    std::vector<std::byte> buf(4096);
    if (ctx.rank % 2 == 0) {
      co_await testutil::send_all(ch, ch.connection(buddy), buf.data(),
                                  buf.size());
    } else {
      co_await testutil::recv_all(ch, ch.connection(buddy), buf.data(),
                                  buf.size());
    }
    if (ctx.rank == 0) {
      EXPECT_GE(ch.stats().eager.bytes, buf.size());
      ch.reset_stats();
      const ChannelStats after = ch.stats();
      EXPECT_EQ(after.eager.ops, 0u);
      EXPECT_EQ(after.eager.bytes, 0u);
      EXPECT_EQ(after.rndv_write.bytes + after.rndv_read.bytes, 0u);
      checked = true;
    }
    co_await ch.finalize();
  });
  sim.run();
  EXPECT_TRUE(checked);
}

TEST(MultiMethod, DataIsByteExactOnBothPaths) {
  sim::Simulator sim;
  ib::Fabric fabric(sim);
  pmi::Job job(fabric, 4, 2);
  ChannelConfig cfg;
  cfg.design = Design::kMultiMethod;
  std::vector<std::unique_ptr<Channel>> chans(4);
  int ok = 0;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    chans[ctx.rank] = Channel::create(ctx, cfg);
    Channel& ch = *chans[ctx.rank];
    co_await ch.init();
    // Every rank sends a distinct pattern to its node buddy AND to its
    // cross-node partner, then receives from both.
    auto pattern = [](int from, int to) {
      sim::Rng rng(static_cast<std::uint64_t>(from * 10 + to));
      std::vector<std::byte> v(200'000);
      for (auto& b : v) b = static_cast<std::byte>(rng.next() & 0xff);
      return v;
    };
    const int buddy = ctx.rank ^ 1;
    const int across = (ctx.rank + 2) % 4;
    auto to_buddy = pattern(ctx.rank, buddy);
    auto to_across = pattern(ctx.rank, across);
    std::vector<std::byte> from_buddy(200'000), from_across(200'000);

    // Interleave: a miniature progress engine over both connections.
    std::size_t sb = 0, sa = 0, rb = 0, ra = 0;
    const std::size_t n = 200'000;
    while (sb < n || sa < n || rb < n || ra < n) {
      const std::uint64_t gen = ch.activity_count();
      bool moved = false;
      auto step = [&](std::size_t& off, auto& buf, int peer,
                      bool sending) -> sim::Task<void> {
        if (off >= n) co_return;
        std::size_t k;
        if (sending) {
          k = co_await ch.put(ch.connection(peer), buf.data() + off, n - off);
        } else {
          k = co_await ch.get(ch.connection(peer), buf.data() + off, n - off);
        }
        off += k;
        moved |= k > 0;
      };
      co_await step(sb, to_buddy, buddy, true);
      co_await step(sa, to_across, across, true);
      co_await step(rb, from_buddy, buddy, false);
      co_await step(ra, from_across, across, false);
      if (!moved && ch.activity_count() == gen) {
        co_await ch.wait_for_activity();
      }
    }
    if (from_buddy == pattern(buddy, ctx.rank) &&
        from_across == pattern(across, ctx.rank)) {
      ++ok;
    }
    co_await ch.finalize();
  });
  sim.run();
  EXPECT_EQ(ok, 4);
}

TEST(MultiMethod, MpiLatencyIsMuchLowerIntraNode) {
  // MPI ping-pong rank0<->rank1 (same node) vs rank0<->rank2 (other node).
  auto latency = [](int peer) {
    sim::Simulator sim;
    ib::Fabric fabric(sim);
    pmi::Job job(fabric, 4, 2);
    mpi::RuntimeConfig cfg;
    cfg.stack.channel.design = Design::kMultiMethod;
    sim::Tick elapsed = 0;
    job.launch([&, peer](pmi::Context& ctx) -> sim::Task<void> {
      mpi::Runtime rt(ctx, cfg);
      co_await rt.init();
      mpi::Communicator& world = rt.world();
      std::byte buf[8] = {};
      constexpr int kIters = 20;
      if (world.rank() == 0) {
        for (int i = 0; i < kIters + 1; ++i) {
          co_await world.send(buf, 8, mpi::Datatype::kByte, peer, 0);
          co_await world.recv(buf, 8, mpi::Datatype::kByte, peer, 0);
          if (i == 0) elapsed = ctx.sim().now();  // reset after warmup
        }
        elapsed = ctx.sim().now() - elapsed;
      } else if (world.rank() == peer) {
        for (int i = 0; i < kIters + 1; ++i) {
          co_await world.recv(buf, 8, mpi::Datatype::kByte, 0, 0);
          co_await world.send(buf, 8, mpi::Datatype::kByte, 0, 0);
        }
      }
      co_await rt.finalize();
    });
    sim.run();
    return sim::to_usec(elapsed) / (2 * 20);
  };
  const double local = latency(1);
  const double remote = latency(2);
  EXPECT_LT(local, 0.5 * remote);  // shared memory skips the fabric
  EXPECT_NEAR(remote, 7.5, 1.0);   // the zero-copy RDMA path
}

TEST(MultiMethod, NasKernelRunsOnSmpLayout) {
  // CG class S on 4 ranks / 2 nodes over the multi-method stack.
  sim::Simulator sim;
  ib::Fabric fabric(sim);
  pmi::Job job(fabric, 4, 2);
  mpi::RuntimeConfig cfg;
  cfg.stack.channel.design = Design::kMultiMethod;
  bool verified = false;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, cfg);
    co_await rt.init();
    auto result = co_await nas::kernel("cg")(rt.world(), ctx, nas::Class::S);
    if (ctx.rank == 0) verified = result.verified;
    co_await rt.finalize();
  });
  sim.run();
  EXPECT_TRUE(verified);
}

TEST(MultiMethod, FacadeReportsMemberObituaryCounters) {
  // Node 1 (ranks 2 and 3; rank death is node-scoped) dies right after
  // init.  Rank 0 pays the conviction cost against rank 3 and posts the
  // obituary; rank 1 waits for it and then fails fast.  Both are counted
  // in the net member, and the facade must report them.
  FaultPlan plan;
  ChannelConfig cfg;
  cfg.design = Design::kMultiMethod;
  cfg.lazy_connect = true;
  cfg.recovery_max_attempts = 3;
  cfg.ft_detector = true;
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  fabric.attach_faults(&plan.schedule);
  pmi::Job job{fabric, 4, 2};
  std::vector<std::unique_ptr<Channel>> chans(4);
  bool errored[2] = {false, false};
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    chans[ctx.rank] = Channel::create(ctx, cfg);
    Channel& ch = *chans[ctx.rank];
    co_await ch.init();
    if (ctx.rank >= 2) {
      plan.schedule.rank_down("node1");
      co_return;
    }
    if (ctx.rank == 1) {
      const std::string posted = co_await ctx.kvs->get("ft:dead:3");
      (void)posted;
    }
    try {
      const std::byte probe{0x5a};
      co_await send_all(ch, ch.connection(3), &probe, 1);
    } catch (const ChannelError&) {
      errored[ctx.rank] = true;
    }
  });
  sim.run_until(sim::usec(30'000'000));

  std::uint64_t obits = 0, fast_fails = 0;
  for (int r = 0; r < 2; ++r) {
    EXPECT_TRUE(errored[r]) << "rank " << r;
    const auto& mm = static_cast<const MultiMethodChannel&>(*chans[r]);
    const ChannelStats facade = mm.stats();
    const ChannelStats shm = mm.shm()->stats();
    const ChannelStats net = mm.net()->stats();
    // Row by row, the facade is the fold of its members (its own
    // counters stay zero here).
    for (const StatField& f : kChannelStatFields) {
      const std::uint64_t x = shm.*f.member, y = net.*f.member;
      EXPECT_EQ(facade.*f.member,
                f.kind == StatKind::kMaxGauge ? std::max(x, y) : x + y)
          << "rank " << r << ": " << f.name;
    }
    obits += facade.obits_posted;
    fast_fails += facade.obit_fast_fails;
  }
  EXPECT_GE(obits, 1u);
  EXPECT_GE(fast_fails, 1u);
}

TEST(ChannelStatsTable, MergeFollowsEachRowKind) {
  // Distinct values per row and side; the larger side alternates so a
  // max-gauge merged as a sum (or the reverse) cannot pass.
  ChannelStats a, b;
  std::uint64_t i = 0;
  for (const StatField& f : kChannelStatFields) {
    a.*f.member = 1000 + i;
    b.*f.member = i % 2 == 0 ? 2000 + i : 500 + i;
    ++i;
  }
  a.eager = {1, 2, 3, 4.0};
  b.eager = {10, 20, 30, 1.5};
  b.rndv_read = {5, 6, 7, 8.0};
  a.rails = {{1, 2, 3}};
  b.rails = {{10, 20, 30}, {40, 50, 60}};
  ChannelStats m = a;
  m.merge(b);
  for (const StatField& f : kChannelStatFields) {
    const std::uint64_t x = a.*f.member, y = b.*f.member;
    EXPECT_EQ(m.*f.member,
              f.kind == StatKind::kMaxGauge ? std::max(x, y) : x + y)
        << f.name;
  }
  EXPECT_EQ(m.eager.ops, 11u);
  EXPECT_EQ(m.eager.bytes, 22u);
  EXPECT_EQ(m.eager.retries, 33u);
  EXPECT_EQ(m.eager.mbps, 4.0);
  EXPECT_EQ(m.rndv_read.ops, 5u);
  EXPECT_EQ(m.rndv_read.mbps, 8.0);
  ASSERT_EQ(m.rails.size(), 2u);
  EXPECT_EQ(m.rails[0].bytes, 11u);
  EXPECT_EQ(m.rails[0].stripes, 22u);
  EXPECT_EQ(m.rails[0].failovers, 33u);
  EXPECT_EQ(m.rails[1].bytes, 40u);
}

TEST(ChannelStatsTable, ResetZeroesCountersAndKeepsGauges) {
  // A multi-method facade with lazy connect and a shared receive pool, so
  // every gauge kind is live; after local, cross-node and one-sided
  // traffic, reset_stats() must zero each counter row and leave each
  // gauge row as it was.
  sim::Simulator sim;
  ib::Fabric fabric(sim);
  pmi::Job job(fabric, 4, 2);
  ChannelConfig cfg;
  cfg.design = Design::kMultiMethod;
  cfg.lazy_connect = true;
  cfg.srq_pool_rings = 2;
  std::vector<std::unique_ptr<Channel>> chans(4);
  bool checked = false;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    chans[ctx.rank] = Channel::create(ctx, cfg);
    Channel& ch = *chans[ctx.rank];
    co_await ch.init();
    std::vector<std::byte> small(4096), large(256 * 1024);
    if (ctx.rank == 0) {
      co_await send_all(ch, ch.connection(1), small.data(), small.size());
      co_await send_all(ch, ch.connection(2), large.data(), large.size());
      ch.note_rma(&ChannelStats::rma_puts);
      const ChannelStats before = ch.stats();
      EXPECT_GT(before.eager.ops, 0u);
      EXPECT_GT(before.rndv_read.ops, 0u);
      EXPECT_GT(before.connects_on_demand, 0u);
      EXPECT_GT(before.rma_puts, 0u);
      EXPECT_GT(before.qps_live, 0u);
      EXPECT_GT(before.srq_pool_high_water, 0u);
      ch.reset_stats();
      const ChannelStats after = ch.stats();
      for (const StatField& f : kChannelStatFields) {
        EXPECT_EQ(after.*f.member,
                  f.kind == StatKind::kCounter ? 0u : before.*f.member)
            << f.name;
      }
      for (const ProtoStats& p : {after.eager, after.rndv_write,
                                  after.rndv_read}) {
        EXPECT_EQ(p.ops + p.bytes + p.retries, 0u);
        EXPECT_EQ(p.mbps, 0.0);
      }
      EXPECT_EQ(after.rails.size(), before.rails.size());
      for (const ChannelStats::RailStats& r : after.rails) {
        EXPECT_EQ(r.bytes + r.stripes + r.failovers, 0u);
      }
      checked = true;
    } else if (ctx.rank == 1) {
      co_await recv_all(ch, ch.connection(0), small.data(), small.size());
    } else if (ctx.rank == 2) {
      co_await recv_all(ch, ch.connection(0), large.data(), large.size());
    }
    co_await ch.finalize();
  });
  sim.run();
  EXPECT_TRUE(checked);
}

}  // namespace
}  // namespace rdmach
