// Layer-entry ladder: one 4 B round trip entered at each layer of the stack
// in the same process -- the bare DES ticker, ib verbs (RDMA write + CQ
// completion), the rdmach channel (put/get), ch3 (start_send/progress_once)
// and mpi (send/recv).  Adjacent rungs differ by exactly one layer, so the
// per-layer host cost of a small message is the difference between them.
#include <cstring>
#include <iterator>
#include <memory>
#include <stdexcept>

#include "ch3/ch3.hpp"
#include "ib/cq.hpp"
#include "ib/fabric.hpp"
#include "ib/hca.hpp"
#include "ib/mr.hpp"
#include "ib/qp.hpp"
#include "mpi/runtime.hpp"
#include "perfbench.hpp"
#include "pmi/pmi.hpp"
#include "rdmach/channel.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

constexpr int kRoundTrips = 2000;
constexpr int kTracedRoundTrips = 200;
constexpr int kReps = 7;
constexpr int kTickerEvents = 200'000;

using SimSpan = ScopedSpan<sim::Simulator>;

std::uint32_t payload(std::uint64_t seed, int layer, int i) {
  return static_cast<std::uint32_t>(mix(seed, 0x1add, layer, i));
}

/// What one rung reports: host seconds per round trip, DES events per
/// round trip, and (rdmach only) how many put/get calls moved no bytes.
struct Rung {
  Samples rt_s;
  double events_per_rt = 0;
  std::uint64_t calls = 0;
  std::uint64_t empty_calls = 0;
};

void check(RunResult& out, bool ok, const char* what) {
  ++out.attempted;
  if (!ok) {
    out.outputs_ok = false;
    out.fail(std::string("ladder: ") + what + " payload mismatch");
  }
}

double bare_ticker_ns_per_event() {
  sim::Simulator sim;
  sim.spawn(
      [](sim::Simulator& s) -> sim::Task<void> {
        for (int i = 0; i < kTickerEvents; ++i) co_await s.delay(sim::nsec(10));
      }(sim),
      "ticker");
  const double t0 = host_now();
  sim.run();
  return (host_now() - t0) * 1e9 / static_cast<double>(sim.events_processed());
}

// ---- ib: RDMA write of 4 B plus its completion --------------------------------

void ib_rung(std::uint64_t seed, int n, Rung& rung, RunResult& out) {
  sim::Simulator sim;
  ib::Fabric fabric(sim);
  ib::Node& a = fabric.add_node("a");
  ib::Node& b = fabric.add_node("b");
  ib::ProtectionDomain& pda = a.hca().alloc_pd();
  ib::ProtectionDomain& pdb = b.hca().alloc_pd();
  ib::CompletionQueue& cqa = a.hca().create_cq("cqa");
  ib::CompletionQueue& cqb = b.hca().create_cq("cqb");
  ib::QueuePair& qpa = a.hca().create_qp(pda, cqa, cqa);
  ib::QueuePair& qpb = b.hca().create_qp(pdb, cqb, cqb);
  qpa.connect(qpb);
  std::uint32_t src = 0, dst = 0;
  bool ok = true;
  std::size_t events0 = 0;
  sim.spawn(
      [&]() -> sim::Task<void> {
        ib::MemoryRegion* ms = co_await pda.register_memory(&src, sizeof src);
        ib::MemoryRegion* md = co_await pdb.register_memory(&dst, sizeof dst);
        events0 = sim.events_processed();
        for (int i = 0; i < n; ++i) {
          src = payload(seed, 1, i);
          const double t0 = host_now();
          {
            SimSpan span(sim, "ib.post_send+cq.next", 0, i + 1);
            qpa.post_send(ib::SendWr{
                static_cast<std::uint64_t>(i), ib::Opcode::kRdmaWrite,
                {ib::Sge{reinterpret_cast<std::byte*>(&src), sizeof src,
                         ms->lkey()}},
                reinterpret_cast<std::uint64_t>(&dst), md->rkey(), true});
            const ib::Wc wc = co_await cqa.next();
            ok = ok && wc.status == ib::WcStatus::kSuccess;
          }
          rung.rt_s.add(host_now() - t0);
          ok = ok && dst == src;
        }
      }(),
      "verbs");
  sim.run();
  rung.events_per_rt =
      static_cast<double>(sim.events_processed() - events0) / n;
  check(out, ok, "ib");
}

// ---- rdmach: Channel::put / Channel::get ---------------------------------------

/// Polls `get` until `len` bytes arrived, sleeping on channel activity
/// between empty polls; counts calls and empty calls.
sim::Task<void> channel_recv(rdmach::Channel& ch, rdmach::Connection& conn,
                             std::byte* buf, std::size_t len, Rung& rung,
                             std::uint64_t parent, std::uint64_t req) {
  std::size_t got = 0;
  while (got < len) {
    const std::uint64_t gen = ch.activity_count();
    SimSpan span(ch.ctx().sim(), "rdmach.get", parent, req);
    const std::size_t moved = co_await ch.get(conn, buf + got, len - got);
    ++rung.calls;
    if (moved == 0) ++rung.empty_calls;
    got += moved;
    if (got < len && moved == 0 && ch.activity_count() == gen) {
      co_await ch.wait_for_activity();
    }
  }
}

sim::Task<void> channel_send(rdmach::Channel& ch, rdmach::Connection& conn,
                             const std::byte* buf, std::size_t len, Rung& rung,
                             std::uint64_t parent, std::uint64_t req) {
  std::size_t sent = 0;
  while (sent < len) {
    const std::uint64_t gen = ch.activity_count();
    SimSpan span(ch.ctx().sim(), "rdmach.put", parent, req);
    const std::size_t moved = co_await ch.put(conn, buf + sent, len - sent);
    ++rung.calls;
    if (moved == 0) ++rung.empty_calls;
    sent += moved;
    if (sent < len && moved == 0 && ch.activity_count() == gen) {
      co_await ch.wait_for_activity();
    }
  }
}

void rdmach_rung(std::uint64_t seed, int n, Rung& rung, RunResult& out) {
  sim::Simulator sim;
  ib::Fabric fabric(sim);
  pmi::Job job(fabric, 2);
  const mpi::RuntimeConfig cfg;
  bool ok = true;
  std::size_t events0 = 0;
  int ready = 0;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    std::unique_ptr<rdmach::Channel> ch =
        rdmach::Channel::create(ctx, cfg.stack.channel);
    co_await ch->init();
    rdmach::Connection& conn = ch->connection(1 - ctx.rank);
    if (++ready == 2) events0 = sim.events_processed();
    std::uint32_t word = 0;
    auto* bytes = reinterpret_cast<std::byte*>(&word);
    for (int i = 0; i < n; ++i) {
      const std::uint32_t expect = payload(seed, 2, i);
      if (ctx.rank == 0) {
        const double t0 = host_now();
        {
          SimSpan rt(sim, "rdmach.round_trip", 0, i + 1);
          word = expect;
          co_await channel_send(*ch, conn, bytes, sizeof word, rung, rt.id(),
                                i + 1);
          word = 0;
          co_await channel_recv(*ch, conn, bytes, sizeof word, rung, rt.id(),
                                i + 1);
        }
        rung.rt_s.add(host_now() - t0);
        ok = ok && word == expect;
      } else {
        co_await channel_recv(*ch, conn, bytes, sizeof word, rung, 0, i + 1);
        ok = ok && word == expect;
        co_await channel_send(*ch, conn, bytes, sizeof word, rung, 0, i + 1);
      }
    }
    co_await ch->finalize();
  });
  sim.run();
  rung.events_per_rt =
      static_cast<double>(sim.events_processed() - events0) / n;
  check(out, ok, "rdmach");
}

// ---- ch3: start_send / progress_once with a benchmark-owned EngineHooks --------

class EchoHooks final : public ch3::EngineHooks {
 public:
  explicit EchoHooks(std::uint32_t& landing) : landing_(&landing) {}
  ch3::Sink on_eager(int, const ch3::MatchHeader& hdr) override {
    if (hdr.length != sizeof(std::uint32_t)) {
      throw std::logic_error("ladder: unexpected ch3 message length");
    }
    return ch3::Sink{reinterpret_cast<std::byte*>(landing_), 0};
  }
  void on_eager_complete(const ch3::Sink&, const ch3::MatchHeader&) override {
    ++arrived;
  }
  void on_rts(int, const ch3::MatchHeader&, std::uint64_t) override {
    throw std::logic_error("ladder: 4 B messages never take rendezvous");
  }
  void on_rndv_complete(std::uint64_t) override {}

  std::uint64_t arrived = 0;

 private:
  std::uint32_t* landing_;
};

/// Drives ch3 progress until `*sent` holds and `*count >= want`.
sim::Task<void> ch3_progress(ch3::Ch3Channel& ch, const bool* sent,
                             const std::uint64_t* count, std::uint64_t want) {
  while (!*sent || *count < want) {
    const std::uint64_t gen = ch.activity_count();
    const bool moved = co_await ch.progress_once();
    if (*sent && *count >= want) break;
    if (!moved && ch.activity_count() == gen) co_await ch.wait_for_activity();
  }
}

void ch3_rung(std::uint64_t seed, int n, Rung& rung, RunResult& out) {
  sim::Simulator sim;
  ib::Fabric fabric(sim);
  pmi::Job job(fabric, 2);
  const mpi::RuntimeConfig cfg;
  bool ok = true;
  std::size_t events0 = 0;
  int ready = 0;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    std::unique_ptr<ch3::Ch3Channel> ch = ch3::make_channel(ctx, cfg.stack);
    std::uint32_t landing = 0;
    EchoHooks hooks(landing);
    co_await ch->init(hooks);
    if (++ready == 2) events0 = sim.events_processed();
    const int peer = 1 - ctx.rank;
    std::uint32_t word = 0;
    const ch3::MatchHeader hdr{ctx.rank, 7, 0, sizeof word};
    for (int i = 0; i < n; ++i) {
      const std::uint32_t expect = payload(seed, 3, i);
      const std::uint64_t want = static_cast<std::uint64_t>(i) + 1;
      ch3::SendReq req;
      if (ctx.rank == 0) {
        const double t0 = host_now();
        {
          SimSpan rt(sim, "ch3.round_trip", 0, want);
          word = expect;
          ch->start_send(peer, hdr, &word, &req);
          SimSpan prog(sim, "ch3.progress_once", rt.id(), want);
          co_await ch3_progress(*ch, &req.done, &hooks.arrived, want);
        }
        rung.rt_s.add(host_now() - t0);
        ok = ok && landing == expect;
      } else {
        const bool no_send = true;
        co_await ch3_progress(*ch, &no_send, &hooks.arrived, want);
        ok = ok && landing == expect;
        word = landing;
        ch->start_send(peer, hdr, &word, &req);
        co_await ch3_progress(*ch, &req.done, &hooks.arrived, want);
      }
    }
    co_await ch->finalize();
  });
  sim.run();
  rung.events_per_rt =
      static_cast<double>(sim.events_processed() - events0) / n;
  check(out, ok, "ch3");
}

// ---- mpi: Communicator::send / recv ---------------------------------------------

void mpi_rung(std::uint64_t seed, int n, Rung& rung, RunResult& out) {
  sim::Simulator sim;
  ib::Fabric fabric(sim);
  pmi::Job job(fabric, 2);
  const mpi::RuntimeConfig cfg;
  bool ok = true;
  std::size_t events0 = 0;
  int ready = 0;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, cfg);
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    if (++ready == 2) events0 = sim.events_processed();
    std::uint32_t word = 0;
    const int peer = 1 - ctx.rank;
    for (int i = 0; i < n; ++i) {
      const std::uint32_t expect = payload(seed, 4, i);
      if (ctx.rank == 0) {
        const double t0 = host_now();
        {
          SimSpan rt_span(sim, "mpi.round_trip", 0, i + 1);
          word = expect;
          {
            SimSpan s(sim, "mpi.send", rt_span.id(), i + 1);
            co_await world.send(&word, 4, mpi::Datatype::kByte, peer, 0);
          }
          word = 0;
          SimSpan r(sim, "mpi.recv", rt_span.id(), i + 1);
          co_await world.recv(&word, 4, mpi::Datatype::kByte, peer, 0);
        }
        rung.rt_s.add(host_now() - t0);
        ok = ok && word == expect;
      } else {
        co_await world.recv(&word, 4, mpi::Datatype::kByte, peer, 0);
        ok = ok && word == expect;
        co_await world.send(&word, 4, mpi::Datatype::kByte, peer, 0);
      }
    }
    co_await rt.finalize();
  });
  sim.run();
  rung.events_per_rt =
      static_cast<double>(sim.events_processed() - events0) / n;
  check(out, ok, "mpi");
}

using RungFn = void (*)(std::uint64_t, int, Rung&, RunResult&);

struct Layer {
  const char* metric;  // per-layer metric name (host us per round trip)
  RungFn fn;
};

constexpr Layer kLayers[] = {
    {"ib.verbs_rt_host_us", ib_rung},
    {"rdmach.ch_rt_host_us", rdmach_rung},
    {"ch3.rt_host_us", ch3_rung},
    {"mpi.rt_host_us", mpi_rung},
};

}  // namespace

void run_ladder(std::uint64_t seed, RunResult& out) {
  // Untraced repetitions give the numbers; one short traced pass per rung
  // afterwards gives the spans (span recording would inflate the timings).
  SpanLog* log = spans();
  set_spans(nullptr);

  // Repetitions are interleaved across the rungs, and each is scaled by the
  // reference loop run just before it, so a host slow-down cannot land on
  // one rung and skew the differences between adjacent rungs.
  constexpr std::size_t kN = std::size(kLayers);
  Samples ticker, rep_us[kN];
  Rung totals[kN];
  for (int r = 0; r < kReps; ++r) {
    const double f = kReferenceSeconds / reference_run_s();
    ticker.add(bare_ticker_ns_per_event() * f);
    for (std::size_t l = 0; l < kN; ++l) {
      Rung rep;
      kLayers[l].fn(seed, kRoundTrips, rep, out);
      rep_us[l].add(rep.rt_s.median() * 1e6 * f);
      totals[l].calls += rep.calls;
      totals[l].empty_calls += rep.empty_calls;
      totals[l].events_per_rt = rep.events_per_rt;
    }
  }
  out.layer.set("sim.bare_ns_per_event", ticker.median(), "ns");
  double prev_us = 0;
  for (std::size_t l = 0; l < kN; ++l) {
    const Layer& layer = kLayers[l];
    const Rung& rung = totals[l];
    const double us = rep_us[l].median();
    out.layer.set(layer.metric, us, "us");
    const std::string base(layer.metric, std::strchr(layer.metric, '.'));
    out.layer.set(base + ".rt_events", rung.events_per_rt, "events");
    out.notes.push_back(std::string("ladder ") + layer.metric + " " +
                        std::to_string(us) + " us/rt (+" +
                        std::to_string(us - prev_us) + " over the rung below, " +
                        std::to_string(rung.events_per_rt) + " events/rt; " +
                        "median of " + std::to_string(kReps) +
                        " reference-scaled medians of " +
                        std::to_string(kRoundTrips) + " round trips)");
    prev_us = us;
    if (rung.calls > 0) {
      out.layer.set("rdmach.empty_poll_pct",
                    100.0 * static_cast<double>(rung.empty_calls) /
                        static_cast<double>(rung.calls),
                    "%");
    }
  }

  set_spans(log);
  if (log != nullptr) {
    for (const Layer& layer : kLayers) {
      Rung traced;
      layer.fn(seed, kTracedRoundTrips, traced, out);
    }
  }
}

}  // namespace perfbench
