#include "session.hpp"

#include <algorithm>

namespace perfbench {

void IbCounts::fold(sim::TraceSink& sink) {
  for (const sim::TraceRecord& r : sink.records()) {
    const std::string& e = r.event;
    const auto bytes = static_cast<std::uint64_t>(std::max<std::int64_t>(r.bytes, 0));
    if (e == "rdma_write") {
      ++rdma_writes;
      wire_bytes += bytes;
    } else if (e == "rdma_read") {
      ++rdma_reads;
    } else if (e == "read_response" || e == "atomic_response") {
      wire_bytes += bytes;
    } else if (e == "send") {
      ++sends;
      wire_bytes += bytes;
    } else if (e == "reg_mr") {
      ++reg_mr;
    } else if (e == "dereg_mr") {
      ++dereg_mr;
    } else if (e == "retransmit") {
      ++retransmits;
    }
  }
  sink.clear();
}

void ChannelSum::absorb(const rdmach::ChannelStats& s) {
  eager_ops += s.eager.ops;
  rndv_read_ops += s.rndv_read.ops;
  rndv_write_ops += s.rndv_write.ops;
  bytes += s.eager.bytes + s.rndv_read.bytes + s.rndv_write.bytes;
  connects_on_demand += s.connects_on_demand;
  qps_evicted += s.qps_evicted;
  qp_thrash += s.qp_thrash;
  qps_live_max = std::max(qps_live_max, s.qps_live);
  resident_bytes_max = std::max(resident_bytes_max, s.resident_bytes);
  srq_high_water = std::max(srq_high_water, s.srq_pool_high_water);
  recoveries += s.recoveries;
  retransmits += s.retransmits;
  replayed_bytes += s.replayed_bytes;
  crc_failures += s.crc_failures;
  watchdog_trips += s.watchdog_trips;
  rail_failovers += s.rail_failovers;
  rail_quarantines += s.rail_quarantines;
}

void ChannelSum::add(const ChannelSum& o) {
  eager_ops += o.eager_ops;
  rndv_read_ops += o.rndv_read_ops;
  rndv_write_ops += o.rndv_write_ops;
  bytes += o.bytes;
  connects_on_demand += o.connects_on_demand;
  qps_evicted += o.qps_evicted;
  qp_thrash += o.qp_thrash;
  qps_live_max = std::max(qps_live_max, o.qps_live_max);
  resident_bytes_max = std::max(resident_bytes_max, o.resident_bytes_max);
  srq_high_water = std::max(srq_high_water, o.srq_high_water);
  recoveries += o.recoveries;
  retransmits += o.retransmits;
  replayed_bytes += o.replayed_bytes;
  crc_failures += o.crc_failures;
  watchdog_trips += o.watchdog_trips;
  rail_failovers += o.rail_failovers;
  rail_quarantines += o.rail_quarantines;
}

Session::Session(int nprocs, const ib::FabricConfig& fcfg, bool traced,
                 PassStats& st, std::uint64_t parent)
    : t_begin_(host_now()),
      st_(&st),
      nprocs_(nprocs),
      traced_(traced),
      fabric(sim, fcfg),
      job(fabric, nprocs),
      sends0_(static_cast<std::size_t>(nprocs), 0) {
  if (traced_) fabric.attach_tracer(&sink);
  if (SpanLog* log = spans()) {
    session_span_ = log->open("session", parent, 0, 0);
    setup_span_ = log->open("phase.setup", session_span_, 0, 0);
  }
}

void Session::ready(mpi::Runtime& rt) {
  sends0_[static_cast<std::size_t>(rt.ctx().rank)] = rt.engine().sends;
  if (++ready_ < nprocs_) return;
  t_setup_end_ = host_now();
  st_->setup_s.add(t_setup_end_ - t_begin_);
  sim0_ = sim.stats();
  copied0_ = 0;
  for (std::size_t i = 0; i < fabric.node_count(); ++i) {
    copied0_ += fabric.node(i).copied_bytes();
  }
  // Set-up traffic is not part of the pass: drop what the sink holds.
  sink.clear();
  if (SpanLog* log = spans()) {
    log->close(setup_span_, sim.now());
    pass_span_ = log->open("phase.pass", session_span_, 0, sim.now());
  }
}

void Session::done(mpi::Runtime& rt) {
  st_->ch.absorb(rt.engine().channel().channel_stats());
  st_->mpi_sends +=
      rt.engine().sends - sends0_[static_cast<std::size_t>(rt.ctx().rank)];
  if (++done_ < nprocs_) return;
  st_->pass_s += host_now() - t_setup_end_;
  const sim::Simulator::Stats s = sim.stats();
  st_->events += s.events_dispatched - sim0_.events_dispatched;
  st_->pool_hits += s.pool_hits - sim0_.pool_hits;
  st_->pool_misses += s.pool_misses - sim0_.pool_misses;
  std::int64_t copied = 0;
  for (std::size_t i = 0; i < fabric.node_count(); ++i) {
    copied += fabric.node(i).copied_bytes();
  }
  st_->memcpy_bytes += copied - copied0_;
  st_->kvs_entries = std::max<std::uint64_t>(st_->kvs_entries, job.kvs().size());
  st_->obituaries += job.kvs().obit_version();
  fold();
  if (SpanLog* log = spans()) log->close(pass_span_, sim.now());
}

void Session::fold() {
  if (traced_) st_->ib.fold(sink);
}

bool Session::run(RunResult& out, const std::string& label,
                  sim::Tick deadline) {
  ScopedSpan<sim::Simulator> span(sim, "sim.run", session_span_);
  bool ok = true;
  try {
    if (deadline > 0) {
      sim.run_until(deadline);
    } else {
      sim.run();
    }
  } catch (const sim::ProcessError& e) {
    out.fail(label + ": " + e.what());
    ok = false;
  } catch (const sim::DeadlockError& e) {
    out.fail(label + ": deadlock: " + e.what());
    ok = false;
  }
  if (ok && done_ < nprocs_) {
    out.fail(label + ": wedged with " + std::to_string(nprocs_ - done_) +
             " rank(s) unfinished");
    ok = false;
  }
  if (SpanLog* log = spans()) {
    if (ready_ < nprocs_) {
      log->close(setup_span_, sim.now());
    } else if (done_ < nprocs_) {
      log->close(pass_span_, sim.now());
    }
    log->close(session_span_, sim.now());
  }
  return ok;
}

}  // namespace perfbench
