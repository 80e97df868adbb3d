// One benchmark session: a fresh simulated job (Simulator, Fabric, Job)
// that sets up, runs one fixed pass of work, and tears down.  The session
// stamps host time at construction, when the last rank finished set-up
// (init + one warm-up round), and when the last rank finished the pass, and
// snapshots the public counters of every layer at those two points.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ib/fabric.hpp"
#include "mpi/runtime.hpp"
#include "perfbench.hpp"
#include "pmi/pmi.hpp"
#include "rdmach/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace perfbench {

/// Verbs-level counts folded out of a sim::TraceSink (traced sessions).
struct IbCounts {
  std::uint64_t rdma_writes = 0;
  std::uint64_t rdma_reads = 0;
  std::uint64_t sends = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t reg_mr = 0;
  std::uint64_t dereg_mr = 0;
  std::uint64_t retransmits = 0;
  /// Counts every record of `sink` and clears it, so a long traced pass
  /// holds at most one operation's worth of records.
  void fold(sim::TraceSink& sink);
};

/// ChannelStats of every rank, summed (counters) or maxed (gauges).
struct ChannelSum {
  std::uint64_t eager_ops = 0;
  std::uint64_t rndv_read_ops = 0;
  std::uint64_t rndv_write_ops = 0;
  std::uint64_t bytes = 0;  // eager + rendezvous payload bytes
  std::uint64_t connects_on_demand = 0;
  std::uint64_t qps_evicted = 0;
  std::uint64_t qp_thrash = 0;
  std::uint64_t qps_live_max = 0;
  std::uint64_t resident_bytes_max = 0;
  std::uint64_t srq_high_water = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t replayed_bytes = 0;
  std::uint64_t crc_failures = 0;
  std::uint64_t watchdog_trips = 0;
  std::uint64_t rail_failovers = 0;
  std::uint64_t rail_quarantines = 0;
  void absorb(const rdmach::ChannelStats& s);
  void add(const ChannelSum& o);
};

/// Everything one pass of a workload measured.  A pass is one session for
/// p2p, coll64 and nas4, and several for nasfault.
struct PassStats {
  Samples setup_s;                        // one sample per session
  double pass_s = 0;                      // host seconds of the timed phases
  double ref_s = 0;                       // reference loop around the pass
  Samples ops;                            // host seconds per op (rank 0)
  std::map<std::string, Samples> calls;   // host seconds per call, by kind
  std::uint64_t events = 0;               // DES events in the timed phases
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::int64_t memcpy_bytes = 0;          // ib::Node::copied_bytes deltas
  std::uint64_t mpi_sends = 0;            // mpi::Engine::sends deltas
  std::uint64_t kvs_entries = 0;          // pmi::Kvs::size at pass end (max)
  std::uint64_t obituaries = 0;           // pmi::Kvs::obit_version (sum)
  ChannelSum ch;
  IbCounts ib;
};

class Session {
 public:
  /// `parent` is the span the session's own spans hang under.
  Session(int nprocs, const ib::FabricConfig& fcfg, bool traced,
          PassStats& st, std::uint64_t parent);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Each rank calls this after init and its warm-up round (channel
  /// counters already reset).  The last caller closes set-up.
  void ready(mpi::Runtime& rt);
  /// Each rank calls this when its share of the pass is over.  The last
  /// caller closes the timed phase.
  void done(mpi::Runtime& rt);
  /// Folds trace records into the pass counts (no-op untraced).
  void fold();

  /// Runs the simulation to completion (or to `deadline` when nonzero).
  /// Returns false -- and counts one failed op in `out` -- when the run
  /// threw (ProcessError, DeadlockError) or left a rank unfinished.
  bool run(RunResult& out, const std::string& label, sim::Tick deadline = 0);

  std::uint64_t setup_span() const noexcept { return setup_span_; }
  std::uint64_t pass_span() const noexcept { return pass_span_; }

 private:
  double t_begin_;
  PassStats* st_;
  int nprocs_;
  bool traced_;
  std::uint64_t session_span_ = 0;
  std::uint64_t setup_span_ = 0;
  std::uint64_t pass_span_ = 0;

 public:
  // Constructed after t_begin_, so set-up time includes building them;
  // destroyed job-first, before the simulator that owns the rank frames.
  sim::Simulator sim;
  ib::Fabric fabric;
  sim::TraceSink sink;
  pmi::Job job;

 private:
  int ready_ = 0;
  int done_ = 0;
  double t_setup_end_ = 0;
  sim::Simulator::Stats sim0_{};
  std::int64_t copied0_ = 0;
  std::vector<std::uint64_t> sends0_;
};

/// Host-and-virtual stopwatch for one call made by rank 0.
struct CallClock {
  double host0 = 0;
  sim::Tick virt0 = 0;
  void start(const sim::Simulator& sim) {
    host0 = host_now();
    virt0 = sim.now();
  }
  double host_s() const { return host_now() - host0; }
  sim::Tick virt(const sim::Simulator& sim) const { return sim.now() - virt0; }
};

}  // namespace perfbench
