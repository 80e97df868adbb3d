// The four workloads.  Every workload runs sessions -- a fresh simulated job
// that sets up, runs one fixed pass of work, and tears down -- until its
// host-time budget is used.  Virtual-time results come from the first
// session of the process only (a fixed position in a fresh process); the
// later sessions exist for host timing and never feed a virtual result.
// All loops are closed: a rank issues its next MPI call only after the
// previous one returned.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ch3/ch3.hpp"
#include "child.hpp"
#include "nas/nas.hpp"
#include "session.hpp"
#include "sim/campaign.hpp"

namespace perfbench {
namespace {

using SimSpan = ScopedSpan<sim::Simulator>;

double to_us(sim::Tick t) { return sim::to_usec(t); }

/// Sessions of one workload: host-timed untraced passes first (at least
/// `min_passes`, then until the budget is spent), then -- in trace runs --
/// traced passes.  `pass(index, traced, stats, root_span)` runs one pass;
/// index 0 is the first session of the process, the only one that yields
/// virtual-time results.
struct Passes {
  std::vector<PassStats> untraced;  // index 0 excluded from host metrics
  std::vector<PassStats> traced;
  double rss_mb = 0;                // peak RSS before any traced pass
};

/// Host seconds of the reference loop around a pass (median of four runs,
/// two before and two after).
template <class Fn>
double with_reference(Fn run_pass) {
  Samples ref;
  ref.add(reference_run_s());
  ref.add(reference_run_s());
  run_pass();
  ref.add(reference_run_s());
  ref.add(reference_run_s());
  return ref.median();
}

template <class PassFn>
Passes drive(const Options& opt, std::uint64_t root, int min_passes,
             PassFn pass) {
  Passes p;
  const double start = host_now();
  const double untraced_budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  SpanLog* log = spans();
  // Untraced passes are timed without span recording.
  set_spans(nullptr);
  for (int i = 0;; ++i) {
    const bool enough = i >= min_passes + 1;
    if (enough && host_now() - start >= untraced_budget) break;
    PassStats& st = p.untraced.emplace_back();
    st.ref_s = with_reference([&] { pass(i, false, st, root); });
  }
  p.rss_mb = peak_rss_mb();
  set_spans(log);
  if (opt.trace) {
    for (int i = 0;; ++i) {
      if (i >= 1 && host_now() - start >= opt.seconds) break;
      PassStats& st = p.traced.emplace_back();
      st.ref_s = with_reference([&] {
        pass(static_cast<int>(p.untraced.size()) + i, true, st, root);
      });
    }
  }
  return p;
}

/// Scale from a pass's host seconds to reference-scaled seconds.
double ref_scale(const PassStats& s) { return kReferenceSeconds / s.ref_s; }

/// Host metrics from the timed passes, and per-layer counts from the last
/// traced pass (or the last untraced one).  Every host timing is scaled by
/// the reference loop measured around its pass, then reported as the
/// median over untraced passes 1..n; pass 0 (the virtual-time pass, which
/// also pays the process's cold start) never counts.
void report_common(const Options& opt, const Passes& p, RunResult& out) {
  // The tail percentile follows from the op count of one pass, which is
  // the same fixed work in every run.
  const double tail_pct = Samples::tail_percentile(p.untraced.front().ops.size());
  Samples setup, pass_s, raw_pass_s, ref_ms, op_p50, op_tail, ns_per_event,
      events, pool_pct;
  std::size_t ops = 0;
  for (std::size_t i = 1; i < p.untraced.size(); ++i) {
    const PassStats& s = p.untraced[i];
    const double f = ref_scale(s);
    for (const double v : s.setup_s.values()) setup.add(v * f);
    pass_s.add(s.pass_s * f);
    raw_pass_s.add(s.pass_s);
    ref_ms.add(s.ref_s * 1e3);
    op_p50.add(s.ops.median() * f);
    op_tail.add(s.ops.percentile(tail_pct) * f);
    ops += s.ops.size();
    events.add(static_cast<double>(s.events));
    ns_per_event.add(s.pass_s * f * 1e9 / static_cast<double>(std::max<std::uint64_t>(s.events, 1)));
    const std::uint64_t pool = s.pool_hits + s.pool_misses;
    pool_pct.add(pool == 0 ? 0.0 : 100.0 * static_cast<double>(s.pool_hits) / static_cast<double>(pool));
  }
  out.e2e.set("setup_s", setup.median(), "s");
  out.e2e.set("host_s", pass_s.median(), "s");
  out.e2e.set("host_op_p50_us", op_p50.median() * 1e6, "us");
  out.e2e.set("host_op_tail_us", op_tail.median() * 1e6, "us");
  out.e2e.set("peak_rss_mb", p.rss_mb, "MB");
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "samples: host_s, host_op_p50_us and host_op_tail_us (p%g of "
                "each pass's %zu ops) are medians over %zu timed passes "
                "(%zu ops); setup_s is the median of %zu set-ups",
                tail_pct, p.untraced.front().ops.size(), pass_s.size(), ops,
                setup.size());
  out.notes.push_back(buf);
  std::snprintf(buf, sizeof buf,
                "reference loop: median %.3f ms (min %.3f, max %.3f) against "
                "%.3f ms nominal; unscaled median pass host time %.6f s",
                ref_ms.median(), ref_ms.percentile(0), ref_ms.percentile(100),
                kReferenceSeconds * 1e3, raw_pass_s.median());
  out.notes.push_back(buf);
  std::string passes = "pass host s:";
  for (std::size_t i = 0; i < p.untraced.size(); ++i) {
    passes += " " + std::to_string(p.untraced[i].pass_s);
  }
  out.notes.push_back(passes + " (pass 0 is the virtual-time pass)");

  out.layer.set("sim.events", events.median(), "count");
  out.layer.set("sim.host_ns_per_event", ns_per_event.median(), "ns");
  out.layer.set("sim.pool_hit_pct", pool_pct.median(), "%");

  const PassStats& c = p.traced.empty() ? p.untraced.back() : p.traced.back();
  out.layer.set("ib.rdma_writes", static_cast<double>(c.ib.rdma_writes), "count");
  out.layer.set("ib.rdma_reads", static_cast<double>(c.ib.rdma_reads), "count");
  out.layer.set("ib.sends", static_cast<double>(c.ib.sends), "count");
  out.layer.set("ib.wire_bytes", static_cast<double>(c.ib.wire_bytes), "B");
  out.layer.set("ib.writes_per_msg",
                c.mpi_sends == 0 ? 0.0
                                 : static_cast<double>(c.ib.rdma_writes) /
                                       static_cast<double>(c.mpi_sends),
                "ratio");
  out.layer.set("ib.reg_mr", static_cast<double>(c.ib.reg_mr), "count");
  out.layer.set("ib.dereg_mr", static_cast<double>(c.ib.dereg_mr), "count");
  out.layer.set("ib.memcpy_bytes", static_cast<double>(c.memcpy_bytes), "B");
  out.layer.set("ib.retransmits", static_cast<double>(c.ib.retransmits), "count");

  const ChannelSum& ch = c.ch;
  out.layer.set("rdmach.eager_ops", static_cast<double>(ch.eager_ops), "count");
  out.layer.set("rdmach.rndv_read_ops", static_cast<double>(ch.rndv_read_ops), "count");
  out.layer.set("rdmach.rndv_write_ops", static_cast<double>(ch.rndv_write_ops), "count");
  out.layer.set("rdmach.connects_on_demand", static_cast<double>(ch.connects_on_demand), "count");
  out.layer.set("rdmach.qps_evicted", static_cast<double>(ch.qps_evicted), "count");
  out.layer.set("rdmach.qp_thrash", static_cast<double>(ch.qp_thrash), "count");
  out.layer.set("rdmach.qps_live_max", static_cast<double>(ch.qps_live_max), "count");
  out.layer.set("rdmach.resident_bytes_max", static_cast<double>(ch.resident_bytes_max), "B");
  out.layer.set("rdmach.srq_high_water", static_cast<double>(ch.srq_high_water), "count");
  out.layer.set("rdmach.recoveries", static_cast<double>(ch.recoveries), "count");
  out.layer.set("rdmach.retransmits", static_cast<double>(ch.retransmits), "count");
  out.layer.set("rdmach.replayed_bytes", static_cast<double>(ch.replayed_bytes), "B");
  out.layer.set("rdmach.crc_failures", static_cast<double>(ch.crc_failures), "count");
  out.layer.set("rdmach.watchdog_trips", static_cast<double>(ch.watchdog_trips), "count");
  out.layer.set("rdmach.rail_failovers", static_cast<double>(ch.rail_failovers), "count");
  out.layer.set("rdmach.rail_quarantines", static_cast<double>(ch.rail_quarantines), "count");
  out.layer.set("rdmach.useful_byte_pct",
                ch.bytes + ch.replayed_bytes == 0
                    ? 100.0
                    : 100.0 * static_cast<double>(ch.bytes) /
                          static_cast<double>(ch.bytes + ch.replayed_bytes),
                "%");
  out.layer.set("pmi.kvs_entries", static_cast<double>(c.kvs_entries), "count");
  out.layer.set("pmi.obituaries", static_cast<double>(c.obituaries), "count");

  if (opt.trace && !p.traced.empty()) {
    Samples traced_s;
    for (const PassStats& s : p.traced) traced_s.add(s.pass_s * ref_scale(s));
    const double base = pass_s.median();
    out.layer.set("trace.overhead_s", traced_s.median() - base, "s");
    out.layer.set("trace.overhead_pct",
                  base > 0 ? 100.0 * (traced_s.median() - base) / base : 0.0,
                  "%");
  }
}

// ---- collectives: the coll64 pass, and the per-layer probe elsewhere ------------

struct CollPlan {
  int nprocs = 64;
  mpi::RuntimeConfig cfg;
  ib::FabricConfig fabric;
  int iters = 10;
};

struct CollVirt {
  double barrier_us = 0;
  double allreduce_8b_us = 0;
  double allreduce_64k_us = 0;
  double alltoall_us = 0;
  double wait_us = 0;  // mean entry-to-last-entry wait per rank and call
};

constexpr int kAr64kDoubles = 8192;
constexpr int kAlltoallBytes = 64;

/// Seeded collective inputs.  Rank r contributes a[j] + r * b[j] + it, so
/// every allreduce result has the closed form p*a[j] + b[j]*p(p-1)/2 + p*it
/// (exact in doubles: all terms are small integers).
struct CollInputs {
  std::vector<double> a, b;
  explicit CollInputs(std::uint64_t seed) : a(kAr64kDoubles), b(kAr64kDoubles) {
    for (int j = 0; j < kAr64kDoubles; ++j) {
      const std::uint64_t m = mix(seed, 0xc011, static_cast<std::uint64_t>(j));
      a[static_cast<std::size_t>(j)] = static_cast<double>(m & 0xffff);
      b[static_cast<std::size_t>(j)] = static_cast<double>((m >> 16) & 0xff);
    }
  }
  static std::byte a2a_byte(std::uint64_t seed, int src, int dst, int k) {
    const std::uint64_t w = mix(seed, 0xa2a, static_cast<std::uint64_t>(src),
                                static_cast<std::uint64_t>(dst));
    return static_cast<std::byte>((w >> ((k & 7) * 8)) ^ static_cast<std::uint64_t>(k));
  }
};

enum CollKind { kBarrier, kAr8, kAr64k, kAlltoall, kCollKinds };
constexpr const char* kCollNames[kCollKinds] = {"barrier", "allreduce_8b",
                                                "allreduce_64k", "alltoall"};

/// One session of the collective pass: `iters` x (barrier, allreduce 8 B,
/// allreduce 64 KB), then one alltoall of 64 B per peer, every result
/// checked.  Rank 0's calls are the timed ops.
void coll_session(const CollPlan& plan, const CollInputs& in,
                  std::uint64_t seed, bool traced, PassStats& st,
                  std::uint64_t parent, RunResult& out, CollVirt* virt) {
  const int p = plan.nprocs;
  const int ncalls = 3 * plan.iters + 1;
  Session s(p, plan.fabric, traced, st, parent);
  // entries[call * p + rank]: virtual time the rank entered the call.
  std::vector<sim::Tick> entries(static_cast<std::size_t>(ncalls * p), 0);
  std::vector<int> entered(static_cast<std::size_t>(ncalls), 0);
  sim::Tick virt_sum[kCollKinds] = {};
  int virt_n[kCollKinds] = {};
  std::uint64_t bad = 0, checked = 0;
  const double pd = static_cast<double>(p);
  const double tri = pd * (pd - 1) / 2;

  s.job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, plan.cfg);
    {
      SimSpan span(s.sim, "mpi.Runtime::init", s.setup_span());
      co_await rt.init();
    }
    mpi::Communicator& world = rt.world();
    const int me = ctx.rank;
    const double r = static_cast<double>(me);
    std::vector<double> s8(1), r8(1);
    std::vector<double> s64(kAr64kDoubles), r64(kAr64kDoubles);
    std::vector<std::byte> sa2a(static_cast<std::size_t>(p * kAlltoallBytes));
    std::vector<std::byte> ra2a(sa2a.size());
    for (int dst = 0; dst < p; ++dst) {
      for (int k = 0; k < kAlltoallBytes; ++k) {
        sa2a[static_cast<std::size_t>(dst * kAlltoallBytes + k)] =
            CollInputs::a2a_byte(seed, me, dst, k);
      }
    }
    // Warm-up round: the steady collectives once, so lazy connects and
    // first-touch registrations land in set-up.
    co_await world.barrier();
    s8[0] = 1;
    co_await world.allreduce(s8.data(), r8.data(), 1, mpi::Datatype::kDouble, mpi::Op::kSum);
    co_await world.allreduce(s64.data(), r64.data(), kAr64kDoubles, mpi::Datatype::kDouble, mpi::Op::kSum);
    rt.engine().channel().reset_channel_stats();
    s.ready(rt);

    int call = 0;
    CallClock clk;
    // Marks entry into call `c` and starts rank 0's stopwatch.
    auto enter = [&](int c) {
      entries[static_cast<std::size_t>(c * p + me)] = s.sim.now();
      ++entered[static_cast<std::size_t>(c)];
      if (me == 0) clk.start(s.sim);
    };
    auto leave = [&](CollKind kind) {
      if (me != 0) return;
      const double h = clk.host_s();
      st.ops.add(h);
      st.calls[kCollNames[kind]].add(h);
      virt_sum[kind] += clk.virt(s.sim);
      ++virt_n[kind];
      s.fold();
    };
    for (int it = 0; it < plan.iters; ++it) {
      const double dit = static_cast<double>(it);
      {
        SimSpan span(s.sim, "mpi.barrier", s.pass_span(), static_cast<std::uint64_t>(call + 1));
        enter(call);
        co_await world.barrier();
        ++checked;
        if (entered[static_cast<std::size_t>(call)] != p) ++bad;
        leave(kBarrier);
      }
      ++call;
      {
        SimSpan span(s.sim, "mpi.allreduce_8b", s.pass_span(), static_cast<std::uint64_t>(call + 1));
        s8[0] = in.a[0] + r * in.b[0] + dit;
        enter(call);
        co_await world.allreduce(s8.data(), r8.data(), 1, mpi::Datatype::kDouble, mpi::Op::kSum);
        leave(kAr8);
        ++checked;
        if (r8[0] != pd * in.a[0] + in.b[0] * tri + pd * dit) ++bad;
      }
      ++call;
      {
        SimSpan span(s.sim, "mpi.allreduce_64k", s.pass_span(), static_cast<std::uint64_t>(call + 1));
        for (int j = 0; j < kAr64kDoubles; ++j) {
          const auto u = static_cast<std::size_t>(j);
          s64[u] = in.a[u] + r * in.b[u] + dit;
        }
        enter(call);
        co_await world.allreduce(s64.data(), r64.data(), kAr64kDoubles, mpi::Datatype::kDouble, mpi::Op::kSum);
        leave(kAr64k);
        ++checked;
        for (int j = 0; j < kAr64kDoubles; ++j) {
          const auto u = static_cast<std::size_t>(j);
          if (r64[u] != pd * in.a[u] + in.b[u] * tri + pd * dit) {
            ++bad;
            break;
          }
        }
      }
      ++call;
    }
    {
      SimSpan span(s.sim, "mpi.alltoall", s.pass_span(), static_cast<std::uint64_t>(call + 1));
      std::fill(ra2a.begin(), ra2a.end(), std::byte{0});
      enter(call);
      co_await world.alltoall(sa2a.data(), kAlltoallBytes, ra2a.data(), mpi::Datatype::kByte);
      leave(kAlltoall);
      ++checked;
      bool ok = true;
      for (int src = 0; src < p && ok; ++src) {
        for (int k = 0; k < kAlltoallBytes; ++k) {
          if (ra2a[static_cast<std::size_t>(src * kAlltoallBytes + k)] !=
              CollInputs::a2a_byte(seed, src, me, k)) {
            ok = false;
            break;
          }
        }
      }
      if (!ok) ++bad;
    }
    s.done(rt);
    co_await rt.finalize();
  });
  const bool ran = s.run(out, "collectives");
  out.attempted += checked;
  if (bad > 0) {
    out.outputs_ok = false;
    for (std::uint64_t i = 0; i < bad; ++i) out.fail("collective result mismatch");
  }
  if (!ran) out.outputs_ok = false;
  if (virt != nullptr) {
    CollVirt& v = *virt;
    auto mean_us = [&](CollKind k) {
      return virt_n[k] == 0 ? 0.0 : to_us(virt_sum[k]) / virt_n[k];
    };
    v.barrier_us = mean_us(kBarrier);
    v.allreduce_8b_us = mean_us(kAr8);
    v.allreduce_64k_us = mean_us(kAr64k);
    v.alltoall_us = mean_us(kAlltoall);
    double wait = 0;
    for (int c = 0; c < ncalls; ++c) {
      sim::Tick last = 0;
      for (int r = 0; r < p; ++r) last = std::max(last, entries[static_cast<std::size_t>(c * p + r)]);
      for (int r = 0; r < p; ++r) wait += to_us(last - entries[static_cast<std::size_t>(c * p + r)]);
    }
    v.wait_us = wait / (static_cast<double>(ncalls) * p);
  }
}

/// mpi.* per-call host metrics and the collective wait, from passes that ran
/// the collective session.
void report_coll(const Passes& passes, const CollVirt& v, RunResult& out) {
  Samples per_kind[kCollKinds];
  for (std::size_t i = 1; i < passes.untraced.size(); ++i) {
    const PassStats& s = passes.untraced[i];
    for (int k = 0; k < kCollKinds; ++k) {
      auto it = s.calls.find(kCollNames[k]);
      if (it == s.calls.end()) continue;
      for (const double v : it->second.values()) per_kind[k].add(v * ref_scale(s));
    }
  }
  out.layer.set("mpi.barrier_host_us", per_kind[kBarrier].median() * 1e6, "us");
  out.layer.set("mpi.allreduce_8b_host_us", per_kind[kAr8].median() * 1e6, "us");
  out.layer.set("mpi.allreduce_64k_host_us", per_kind[kAr64k].median() * 1e6, "us");
  out.layer.set("mpi.alltoall_host_ms", per_kind[kAlltoall].median() * 1e3, "ms");
  out.layer.set("mpi.coll_wait_virt_us", v.wait_us, "vus");
}

/// Workloads other than coll64 measure the mpi collective metrics with a
/// short probe on their own rank count and stack configuration, timed with
/// span recording off.
void coll_probe(const Options& opt, const CollPlan& plan, std::uint64_t root,
                RunResult& out) {
  SpanLog* log = spans();
  set_spans(nullptr);
  const CollInputs in(opt.seed);
  Passes passes;
  passes.untraced.resize(8);
  CollVirt v;
  for (std::size_t i = 0; i < passes.untraced.size(); ++i) {
    PassStats& st = passes.untraced[i];
    st.ref_s = with_reference([&] {
      coll_session(plan, in, opt.seed, false, st, root, out, i == 0 ? &v : nullptr);
    });
  }
  set_spans(log);
  report_coll(passes, v, out);
}

// ---- p2p ------------------------------------------------------------------------

constexpr int kPingPongs = 20000;
constexpr int kWindow = 16;
constexpr std::size_t k64K = 64 * 1024;
constexpr std::size_t k1M = 1024 * 1024;
constexpr int kRounds64K = 16;
constexpr int kRounds1M = 4;

struct P2pVirt {
  double lat_4b_us = 0;
  double bw_64k_mbps = 0;
  double bw_1m_mbps = 0;
};

/// Seeded stream payloads (kWindow buffers of 1 MB; 64 KB messages use
/// each buffer's prefix) and the receiver's landing buffers.
struct P2pBuffers {
  std::vector<std::vector<std::byte>> send, recv;
  explicit P2pBuffers(std::uint64_t seed) {
    for (int w = 0; w < kWindow; ++w) {
      std::vector<std::byte> b(k1M);
      for (std::size_t i = 0; i < k1M; i += 8) {
        const std::uint64_t m = mix(seed, 0x5712, static_cast<std::uint64_t>(w), i);
        std::memcpy(&b[i], &m, 8);
      }
      send.push_back(std::move(b));
      recv.emplace_back(k1M);
    }
  }
};

std::uint32_t ping_word(std::uint64_t seed, int i) {
  return static_cast<std::uint32_t>(mix(seed, 0x9199, static_cast<std::uint64_t>(i)));
}

/// Windowed stream of `rounds` x kWindow messages of `msg` bytes, rank 0 to
/// rank 1, each round handshaked so the receives are pre-posted.  The
/// receiver checks every message byte for byte.  Returns virtual elapsed
/// time at rank 0 (through delivery of the last window).
sim::Task<sim::Tick> stream(mpi::Communicator& world, pmi::Context& ctx,
                            P2pBuffers& bufs, std::size_t msg, int rounds,
                            std::uint64_t* checked, std::uint64_t* bad,
                            std::uint64_t span_parent) {
  SimSpan span(ctx.sim(), msg == k1M ? "mpi.stream_1m" : "mpi.stream_64k", span_parent);
  const int n = static_cast<int>(msg);
  std::byte token{1};
  const sim::Tick t0 = ctx.sim().now();
  if (world.rank() == 0) {
    for (int r = 0; r < rounds; ++r) {
      co_await world.recv(&token, 1, mpi::Datatype::kByte, 1, 1);
      std::vector<mpi::Request> reqs;
      for (int w = 0; w < kWindow; ++w) {
        reqs.push_back(co_await world.isend(bufs.send[static_cast<std::size_t>(w)].data(), n,
                                            mpi::Datatype::kByte, 1, 0));
      }
      co_await world.wait_all(reqs);
    }
    co_await world.recv(&token, 1, mpi::Datatype::kByte, 1, 2);
  } else {
    for (int r = 0; r < rounds; ++r) {
      for (auto& b : bufs.recv) std::memset(b.data(), 0, msg);
      std::vector<mpi::Request> reqs;
      for (int w = 0; w < kWindow; ++w) {
        reqs.push_back(co_await world.irecv(bufs.recv[static_cast<std::size_t>(w)].data(), n,
                                            mpi::Datatype::kByte, 0, 0));
      }
      co_await world.send(&token, 1, mpi::Datatype::kByte, 0, 1);
      co_await world.wait_all(reqs);
      for (int w = 0; w < kWindow; ++w) {
        ++*checked;
        const auto u = static_cast<std::size_t>(w);
        if (std::memcmp(bufs.recv[u].data(), bufs.send[u].data(), msg) != 0) ++*bad;
      }
    }
    co_await world.send(&token, 1, mpi::Datatype::kByte, 0, 2);
  }
  co_return ctx.sim().now() - t0;
}

void p2p_session(std::uint64_t seed, P2pBuffers& bufs, bool traced,
                 PassStats& st, std::uint64_t parent, RunResult& out,
                 P2pVirt* virt) {
  Session s(2, ib::FabricConfig{}, traced, st, parent);
  const mpi::RuntimeConfig cfg;  // RDMA Channel, zero-copy design
  std::uint64_t checked = 0, bad = 0;
  sim::Tick pp_virt = 0, v64 = 0, v1m = 0;

  s.job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, cfg);
    {
      SimSpan span(s.sim, "mpi.Runtime::init", s.setup_span());
      co_await rt.init();
    }
    mpi::Communicator& world = rt.world();
    const int me = ctx.rank;
    std::uint32_t word = 0;
    std::uint64_t scratch_checked = 0, scratch_bad = 0;
    // Warm-up round: a few ping-pongs and one window at each stream size
    // (first-touch registrations land in set-up).
    for (int i = 0; i < 8; ++i) {
      if (me == 0) {
        co_await world.send(&word, 4, mpi::Datatype::kByte, 1, 0);
        co_await world.recv(&word, 4, mpi::Datatype::kByte, 1, 0);
      } else {
        co_await world.recv(&word, 4, mpi::Datatype::kByte, 0, 0);
        co_await world.send(&word, 4, mpi::Datatype::kByte, 0, 0);
      }
    }
    (void)co_await stream(world, ctx, bufs, k64K, 1, &scratch_checked, &scratch_bad, s.setup_span());
    (void)co_await stream(world, ctx, bufs, k1M, 1, &scratch_checked, &scratch_bad, s.setup_span());
    bad += scratch_bad;
    rt.engine().channel().reset_channel_stats();
    s.ready(rt);

    const sim::Tick t0 = s.sim.now();
    CallClock clk;
    for (int i = 0; i < kPingPongs; ++i) {
      const std::uint32_t expect = ping_word(seed, i);
      if (me == 0) {
        SimSpan span(s.sim, "mpi.round_trip", s.pass_span(), static_cast<std::uint64_t>(i + 1));
        clk.start(s.sim);
        word = expect;
        co_await world.send(&word, 4, mpi::Datatype::kByte, 1, 0);
        word = 0;
        co_await world.recv(&word, 4, mpi::Datatype::kByte, 1, 0);
        st.ops.add(clk.host_s());
        ++checked;
        if (word != expect) ++bad;
        s.fold();
      } else {
        co_await world.recv(&word, 4, mpi::Datatype::kByte, 0, 0);
        ++checked;
        if (word != expect) ++bad;
        co_await world.send(&word, 4, mpi::Datatype::kByte, 0, 0);
      }
    }
    if (me == 0) pp_virt = s.sim.now() - t0;
    const sim::Tick a = co_await stream(world, ctx, bufs, k64K, kRounds64K, &checked, &bad, s.pass_span());
    s.fold();
    const sim::Tick b = co_await stream(world, ctx, bufs, k1M, kRounds1M, &checked, &bad, s.pass_span());
    s.fold();
    if (me == 0) {
      v64 = a;
      v1m = b;
    }
    s.done(rt);
    co_await rt.finalize();
  });
  const bool ran = s.run(out, "p2p");
  out.attempted += checked;
  if (bad > 0 || !ran) out.outputs_ok = false;
  for (std::uint64_t i = 0; i < bad; ++i) out.fail("p2p payload mismatch");
  if (virt != nullptr) {
    virt->lat_4b_us = to_us(pp_virt) / (2.0 * kPingPongs);
    virt->bw_64k_mbps = sim::bandwidth_mbps(
        static_cast<std::int64_t>(k64K * kWindow * kRounds64K), v64);
    virt->bw_1m_mbps = sim::bandwidth_mbps(
        static_cast<std::int64_t>(k1M * kWindow * kRounds1M), v1m);
  }
}

// ---- NAS kernels ------------------------------------------------------------------

const std::vector<std::string>& nas4_kernels() {
  static const std::vector<std::string> k = {"is", "ft", "cg", "mg", "lu"};
  return k;
}

struct KernelRun {
  std::string kernel;
  nas::Result result;
  double host_s = 0;
  Samples iter_s;
  bool completed = false;
};

/// One NAS session: init + warm-up (barrier, 8 B allreduce), then each of
/// `kernels` in turn on the same job.  Rank 0's main-loop iterations (the
/// kernels' phase events) are the timed ops.  With `campaign`, rank 0's
/// phase events drive it and its schedule is attached to the fabric; the
/// run is bounded by a virtual deadline and transport errors are caught
/// per rank, so a failed or wedged run is counted, not fatal.
void nas_session(const std::vector<std::string>& kernels, int nprocs,
                 const mpi::RuntimeConfig& cfg, const ib::FabricConfig& fcfg,
                 sim::FaultCampaign* campaign, bool traced, PassStats& st,
                 std::uint64_t parent, RunResult& out,
                 std::vector<KernelRun>& runs, const std::string& label) {
  Session s(nprocs, fcfg, traced, st, parent);
  if (campaign != nullptr) s.fabric.attach_faults(&campaign->schedule());
  runs.assign(kernels.size(), KernelRun{});
  for (std::size_t k = 0; k < kernels.size(); ++k) runs[k].kernel = kernels[k];
  std::size_t current = 0;
  double mark = 0;
  nas::ScopedPhaseHook hook([&](const nas::PhaseEvent& e) {
    if (e.rank != 0) return;
    const double now = host_now();
    runs[current].iter_s.add(now - mark);
    st.ops.add(now - mark);
    mark = now;
    if (campaign != nullptr) campaign->on_phase(e.phase);
    s.fold();
  });

  s.job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, cfg);
    {
      SimSpan span(s.sim, "mpi.Runtime::init", s.setup_span());
      co_await rt.init();
    }
    mpi::Communicator& world = rt.world();
    double one = 1, sum = 0;
    co_await world.barrier();
    co_await world.allreduce(&one, &sum, 1, mpi::Datatype::kDouble, mpi::Op::kSum);
    rt.engine().channel().reset_channel_stats();
    s.ready(rt);
    bool failed = false;
    for (std::size_t k = 0; k < kernels.size() && !failed; ++k) {
      KernelRun& run = runs[k];
      const double t0 = host_now();
      if (ctx.rank == 0) {
        current = k;
        mark = t0;
      }
      try {
        SimSpan span(s.sim, "nas::kernel(" + run.kernel + ")", s.pass_span(), k + 1);
        nas::Result r = co_await nas::kernel(run.kernel)(world, ctx, nas::Class::A);
        if (ctx.rank == 0) {
          run.result = r;
          run.host_s = host_now() - t0;
          run.completed = true;
        }
      } catch (const rdmach::ChannelError& e) {
        failed = true;
        out.fail(label + "/" + run.kernel + ": " + e.to_string());
      } catch (const ch3::VcError& e) {
        failed = true;
        out.fail(label + "/" + run.kernel + ": " + e.what());
      }
    }
    s.done(rt);
    if (!failed) co_await rt.finalize();
  });
  const sim::Tick deadline = campaign != nullptr ? sim::usec(120'000'000) : 0;
  if (!s.run(out, label, deadline)) out.outputs_ok = false;
  for (KernelRun& run : runs) {
    ++out.attempted;
    if (run.completed && !run.result.verified) {
      out.outputs_ok = false;
      out.fail(label + "/" + run.kernel + ": result not verified (" + run.result.detail + ")");
    }
  }
}

// ---- one NAS session in a child process ---------------------------------------

void put(Wire& w, const PassStats& s) {
  w.put(s.setup_s);
  w.put(s.pass_s);
  w.put(s.ops);
  w.put(static_cast<std::uint64_t>(s.events));
  w.put(s.pool_hits);
  w.put(s.pool_misses);
  w.put(static_cast<std::uint64_t>(s.memcpy_bytes));
  w.put(s.mpi_sends);
  w.put(s.kvs_entries);
  w.put(s.obituaries);
  const ChannelSum& c = s.ch;
  for (const std::uint64_t v :
       {c.eager_ops, c.rndv_read_ops, c.rndv_write_ops, c.bytes,
        c.connects_on_demand, c.qps_evicted, c.qp_thrash, c.qps_live_max,
        c.resident_bytes_max, c.srq_high_water, c.recoveries, c.retransmits,
        c.replayed_bytes, c.crc_failures, c.watchdog_trips, c.rail_failovers,
        c.rail_quarantines}) {
    w.put(v);
  }
  const IbCounts& b = s.ib;
  for (const std::uint64_t v : {b.rdma_writes, b.rdma_reads, b.sends,
                                b.wire_bytes, b.reg_mr, b.dereg_mr,
                                b.retransmits}) {
    w.put(v);
  }
}

/// Adds a child's PassStats into `st` (the pass may span several sessions).
void merge(Wire& w, PassStats& st) {
  st.setup_s.append(w.samples());
  st.pass_s += w.f64();
  st.ops.append(w.samples());
  st.events += w.u64();
  st.pool_hits += w.u64();
  st.pool_misses += w.u64();
  st.memcpy_bytes += static_cast<std::int64_t>(w.u64());
  st.mpi_sends += w.u64();
  st.kvs_entries = std::max(st.kvs_entries, w.u64());
  st.obituaries += w.u64();
  ChannelSum c;
  for (std::uint64_t* f :
       {&c.eager_ops, &c.rndv_read_ops, &c.rndv_write_ops, &c.bytes,
        &c.connects_on_demand, &c.qps_evicted, &c.qp_thrash, &c.qps_live_max,
        &c.resident_bytes_max, &c.srq_high_water, &c.recoveries,
        &c.retransmits, &c.replayed_bytes, &c.crc_failures,
        &c.watchdog_trips, &c.rail_failovers, &c.rail_quarantines}) {
    *f = w.u64();
  }
  st.ch.add(c);
  IbCounts& b = st.ib;
  for (std::uint64_t* f : {&b.rdma_writes, &b.rdma_reads, &b.sends,
                           &b.wire_bytes, &b.reg_mr, &b.dereg_mr,
                           &b.retransmits}) {
    *f += w.u64();
  }
}

/// nas_session in a child forked from this process.  Every faulted session
/// then starts from the same process state, so its virtual time does not
/// depend on the sessions before it, and a crash inside the simulated stack
/// ends only the child: it is counted as one failed op per kernel and the
/// run goes on.
void nas_session_in_child(const std::vector<std::string>& kernels, int nprocs,
                          const mpi::RuntimeConfig& cfg,
                          const ib::FabricConfig& fcfg,
                          sim::FaultCampaign* campaign, bool traced,
                          PassStats& st, std::uint64_t parent, RunResult& out,
                          std::vector<KernelRun>& runs,
                          const std::string& label) {
  SpanLog* log = spans();
  const std::size_t span0 = log != nullptr ? log->size() : 0;
  std::string why;
  const std::optional<std::string> bytes = run_in_child(
      [&]() -> std::string {
        PassStats cst;
        RunResult cres;
        std::vector<KernelRun> cruns;
        nas_session(kernels, nprocs, cfg, fcfg, campaign, traced, cst, parent,
                    cres, cruns, label);
        Wire w;
        put(w, cst);
        w.put(cres.attempted);
        w.put(cres.failed);
        w.put(static_cast<std::uint64_t>(cres.outputs_ok));
        w.put(static_cast<std::uint64_t>(cres.notes.size()));
        for (const std::string& n : cres.notes) w.put(n);
        for (const KernelRun& r : cruns) {
          w.put(r.result.mops);
          w.put(static_cast<std::uint64_t>(r.result.verified));
          w.put(r.host_s);
          w.put(r.iter_s);
          w.put(static_cast<std::uint64_t>(r.completed));
        }
        const std::size_t n = log != nullptr ? log->size() : 0;
        w.put(static_cast<std::uint64_t>(n - span0));
        for (std::size_t i = span0; i < n; ++i) {
          const Span& sp = log->all()[i];
          w.put(sp.id);
          w.put(sp.parent);
          w.put(sp.req);
          w.put(sp.name);
          w.put(sp.host_start);
          w.put(sp.host_end);
          w.put(static_cast<std::uint64_t>(sp.virt_start));
          w.put(static_cast<std::uint64_t>(sp.virt_end));
        }
        return w.bytes();
      },
      why);
  runs.assign(kernels.size(), KernelRun{});
  for (std::size_t k = 0; k < kernels.size(); ++k) runs[k].kernel = kernels[k];
  if (!bytes) {
    out.attempted += kernels.size();
    out.outputs_ok = false;
    for (std::size_t k = 0; k < kernels.size(); ++k) out.fail(label + ": " + why);
    return;
  }
  Wire w(*bytes);
  merge(w, st);
  out.attempted += w.u64();
  out.failed += w.u64();
  out.outputs_ok = out.outputs_ok && w.u64() != 0;
  for (std::uint64_t i = 0, n = w.u64(); i < n; ++i) out.notes.push_back(w.str());
  for (KernelRun& r : runs) {
    r.result.mops = w.f64();
    r.result.verified = w.u64() != 0;
    r.host_s = w.f64();
    r.iter_s = w.samples();
    r.completed = w.u64() != 0;
  }
  for (std::uint64_t i = 0, n = w.u64(); i < n; ++i) {
    Span sp;
    sp.id = w.u64();
    sp.parent = w.u64();
    sp.req = w.u64();
    sp.name = w.str();
    sp.host_start = w.f64();
    sp.host_end = w.f64();
    sp.virt_start = static_cast<sim::Tick>(w.u64());
    sp.virt_end = static_cast<sim::Tick>(w.u64());
    if (log != nullptr) log->append(std::move(sp));
  }
}

// ---- nasfault mixes (seeded, keyed to kernel progress) -------------------------------

/// The standard "combined" mix: kills, corruption, exhaustion and one rail
/// loss in the same run.
void mix_combined(sim::FaultCampaign& c, const std::string& phase, int nprocs) {
  for (int r = 0; r < nprocs; ++r) {
    c.at_phase(phase).from(1 + r).repeat_every(2 * nprocs).times(3).jitter(16).kill(r);
    c.at_phase(phase).from(2 + r).repeat_every(3 * nprocs).times(3).jitter(24).corrupt(r);
    c.at_phase(phase).from(3 + r).repeat_every(4 * nprocs).times(2).jitter(8)
        .exhaust_reg(r, 1)
        .exhaust_credit(r, 1);
  }
  c.at_phase(phase).from(1).once().rail_down(0, 1);
}

/// The gray "degrade" mix: every node's secondary rail turns 10x slow for a
/// healing window, and rank 0's secondary rail flickers.  Nothing dies.
void mix_degrade(sim::FaultCampaign& c, const std::string& phase, int nprocs) {
  sim::FaultSchedule::DegradeSpec gray;
  gray.latency_mult = 10.0;
  gray.bandwidth_mult = 0.1;
  for (int r = 0; r < nprocs; ++r) {
    c.at_phase(phase).from(1 + r).repeat_every(2 * nprocs).times(2).jitter(16)
        .degrade_rail(r, 1, gray, 60);
  }
  sim::FaultSchedule::DegradeSpec flicker;
  flicker.latency_add = 40'000;
  c.at_phase(phase).from(2).once().flaky_rail(0, 1, flicker, 8, 3, 120);
}

mpi::RuntimeConfig integrity_config(rdmach::Design design) {
  mpi::RuntimeConfig cfg;
  cfg.stack.channel.design = design;
  cfg.stack.channel.integrity_check = true;
  return cfg;
}

ib::FabricConfig two_rails() {
  ib::FabricConfig f;
  f.ports_per_hca = 2;
  return f;
}

}  // namespace

// ---- workload entry points -------------------------------------------------------

// Minimum timed passes per run (after the first, virtual-time pass); runs
// continue past them until the host-time budget is spent.
constexpr int kP2pPasses = 3;
constexpr int kCollPasses = 4;
constexpr int kNasPasses = 3;
constexpr int kNasfaultPasses = 2;

void run_p2p(const Options& opt, RunResult& out) {
  P2pBuffers bufs(opt.seed);
  P2pVirt virt;
  const std::uint64_t root = spans() ? spans()->open("workload.p2p", 0, 0, 0) : 0;
  const Passes p = drive(opt, root, kP2pPasses, [&](int i, bool traced, PassStats& st, std::uint64_t parent) {
    p2p_session(opt.seed, bufs, traced, st, parent, out, i == 0 ? &virt : nullptr);
  });
  report_common(opt, p, out);
  out.layer.set("virt_lat_4b_us", virt.lat_4b_us, "vus");
  out.layer.set("virt_bw_64k_mbps", virt.bw_64k_mbps, "MB/s");
  out.layer.set("virt_bw_1m_mbps", virt.bw_1m_mbps, "MB/s");
  if (opt.trace) {
    CollPlan plan;
    plan.nprocs = 2;
    coll_probe(opt, plan, root, out);
  }
  if (SpanLog* log = spans()) log->close(root, 0);
}

void run_coll64(const Options& opt, RunResult& out) {
  CollPlan plan;
  plan.nprocs = 64;
  plan.cfg.stack.channel.lazy_connect = true;
  plan.cfg.stack.channel.qp_budget = 32;
  plan.cfg.stack.channel.srq_pool_rings = 32;
  plan.iters = 20;
  const CollInputs in(opt.seed);
  CollVirt virt;
  const std::uint64_t root = spans() ? spans()->open("workload.coll64", 0, 0, 0) : 0;
  const Passes p = drive(opt, root, kCollPasses, [&](int i, bool traced, PassStats& st, std::uint64_t parent) {
    coll_session(plan, in, opt.seed, traced, st, parent, out, i == 0 ? &virt : nullptr);
  });
  report_common(opt, p, out);
  report_coll(p, virt, out);
  out.layer.set("virt_barrier_us", virt.barrier_us, "vus");
  out.layer.set("virt_allreduce_8b_us", virt.allreduce_8b_us, "vus");
  out.layer.set("virt_allreduce_64k_us", virt.allreduce_64k_us, "vus");
  out.layer.set("virt_alltoall_us", virt.alltoall_us, "vus");
  if (SpanLog* log = spans()) log->close(root, 0);
}

void run_nas4(const Options& opt, RunResult& out) {
  const mpi::RuntimeConfig cfg;
  std::vector<KernelRun> first;
  std::vector<Samples> host_s(nas4_kernels().size()), iter_s(nas4_kernels().size());
  const std::uint64_t root = spans() ? spans()->open("workload.nas4", 0, 0, 0) : 0;
  const Passes p = drive(opt, root, kNasPasses, [&](int i, bool traced, PassStats& st, std::uint64_t parent) {
    std::vector<KernelRun> runs;
    nas_session(nas4_kernels(), 4, cfg, ib::FabricConfig{}, nullptr, traced, st, parent, out, runs, "nas4");
    if (i == 0) first = runs;
    if (i == 0 || traced) return;
    for (std::size_t k = 0; k < runs.size(); ++k) {
      host_s[k].add(runs[k].host_s);
      iter_s[k].append(runs[k].iter_s);
    }
  });
  report_common(opt, p, out);
  double log_sum = 0;
  int n = 0;
  for (std::size_t k = 0; k < first.size(); ++k) {
    const KernelRun& r = first[k];
    const std::string base = "nas." + r.kernel;
    out.layer.set(base + ".virt_mops", r.result.mops, "Mop/s");
    out.notes.push_back(base + ".host_s (unscaled) " + std::to_string(host_s[k].median()) +
                        " s, " + base + ".iter_host_ms " +
                        std::to_string(iter_s[k].median() * 1e3) + " ms (" +
                        std::to_string(iter_s[k].size()) + " iterations), " +
                        base + ".virt_mops " + std::to_string(r.result.mops));
    if (r.completed && r.result.verified && r.result.mops > 0) {
      log_sum += std::log(r.result.mops);
      ++n;
    }
  }
  out.layer.set("virt_mops_geomean", n == 0 ? 0.0 : std::exp(log_sum / n), "Mop/s");
  if (opt.trace) {
    CollPlan plan;
    plan.nprocs = 4;
    coll_probe(opt, plan, root, out);
  }
  if (SpanLog* log = spans()) log->close(root, 0);
}

void run_nasfault(const Options& opt, RunResult& out) {
  // Three pairs, each a faulted run and its clean run of the same kernel
  // and configuration: IS and CG under the combined mix on the 2-rail,
  // integrity-on zero-copy stack; IS under the degrade mix on the adaptive
  // design with the health detector on.
  struct Pair {
    std::string kernel;
    std::string phase;
    mpi::RuntimeConfig cfg;
    void (*mix)(sim::FaultCampaign&, const std::string&, int);
  };
  mpi::RuntimeConfig gray = integrity_config(rdmach::Design::kAdaptive);
  gray.stack.channel.health_detector = true;
  gray.stack.channel.health_soft_sigma = 1.5;
  gray.stack.channel.health_probe_interval = 4;
  const std::vector<Pair> pairs = {
      {"is", "is.iter", integrity_config(rdmach::Design::kZeroCopy), mix_combined},
      {"cg", "cg.iter", integrity_config(rdmach::Design::kZeroCopy), mix_combined},
      {"is", "is.iter", gray, mix_degrade},
  };
  constexpr int kProcs = 4;
  const ib::FabricConfig fabric = two_rails();
  double loss_sum = 0;
  int losses = 0;
  const std::uint64_t root = spans() ? spans()->open("workload.nasfault", 0, 0, 0) : 0;
  const Passes p = drive(opt, root, kNasfaultPasses, [&](int i, bool traced, PassStats& st, std::uint64_t parent) {
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      const Pair& pr = pairs[k];
      std::vector<KernelRun> clean, faulted;
      const std::string label = "nasfault/" + std::to_string(k);
      nas_session_in_child({pr.kernel}, kProcs, pr.cfg, fabric, nullptr, traced, st, parent, out, clean, label + "/clean");
      sim::FaultCampaign campaign(opt.seed);
      pr.mix(campaign, pr.phase, kProcs);
      nas_session_in_child({pr.kernel}, kProcs, pr.cfg, fabric, &campaign, traced, st, parent, out, faulted, label + "/fault");
      if (i != 0) continue;
      const nas::Result& c = clean.front().result;
      const nas::Result& f = faulted.front().result;
      if (clean.front().completed && faulted.front().completed && c.mops > 0) {
        const double loss = 100.0 * (1.0 - f.mops / c.mops);
        loss_sum += loss;
        ++losses;
        out.notes.push_back(label + " " + pr.kernel + " clean " + std::to_string(c.mops) +
                            " Mop/s, faulted " + std::to_string(f.mops) + " Mop/s, loss " +
                            std::to_string(loss) + " %");
      }
    }
  });
  report_common(opt, p, out);
  out.layer.set("fault_loss_pct", losses == 0 ? 0.0 : loss_sum / losses, "%");
  if (opt.trace) {
    CollPlan plan;
    plan.nprocs = kProcs;
    plan.cfg = integrity_config(rdmach::Design::kZeroCopy);
    plan.fabric = fabric;
    coll_probe(opt, plan, root, out);
  }
  if (SpanLog* log = spans()) log->close(root, 0);
}

}  // namespace perfbench
