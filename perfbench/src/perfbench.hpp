// Shared plumbing of the repository benchmark: host clock, sample sets,
// metric reports, the benchmark-side span log, and the per-workload entry
// points.  The benchmark only calls the public API of the library layers
// (sim, ib, pmi, rdmach, ch3, mpi, nas); every span and counter here is
// recorded from outside those layers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace perfbench {

/// Host seconds on the monotonic clock.
inline double host_now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/// A set of host-time (or other) samples.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  std::size_t size() const noexcept { return v_.size(); }
  bool empty() const noexcept { return v_.empty(); }
  const std::vector<double>& values() const noexcept { return v_; }
  double median() const;
  /// Nearest-rank percentile `p` in [0, 100].
  double percentile(double p) const;
  /// The highest of {99.9, 99.5, 99, 95, 90, 75, 50} that leaves at least
  /// ten of `n` samples beyond it.
  static double tail_percentile(std::size_t n);

 private:
  std::vector<double> sorted() const;
  std::vector<double> v_;
};

/// Ordered name -> (value, unit) list, emitted as a JSON object.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const noexcept {
    return items_;
  }
  std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

// ---- benchmark-side spans ---------------------------------------------------
// One span per call into a layer's public function, recorded by benchmark
// code around the call.  Spans of one operation share `req`.  A span around
// a co_await also covers other simulated ranks' work, so self time per layer
// is read from the layer-entry ladder, not from span nesting.

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t req = 0;
  std::string name;
  double host_start = 0;
  double host_end = 0;
  sim::Tick virt_start = 0;
  sim::Tick virt_end = 0;
};

class SpanLog {
 public:
  std::uint64_t open(std::string name, std::uint64_t parent, std::uint64_t req,
                     sim::Tick virt_now);
  void close(std::uint64_t id, sim::Tick virt_now);
  std::size_t size() const noexcept { return spans_.size(); }
  const std::vector<Span>& all() const noexcept { return spans_; }
  /// Appends a span recorded by a child process (ids continue this log's).
  void append(Span s) { spans_.push_back(std::move(s)); }
  /// Writes every span as a JSON array; returns false if the file cannot
  /// be opened.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// The process-wide span log; nullptr while tracing is off, so every
/// recording site costs one branch in untraced runs.
SpanLog* spans();
void set_spans(SpanLog* log);

/// RAII span for straight-line and coroutine code alike (a coroutine frame
/// keeps it alive across suspension).  The virtual clock is read from
/// `clock.now()` (the simulator) at open and close.
template <class Clock>
class ScopedSpan {
 public:
  ScopedSpan(const Clock& clock, std::string name, std::uint64_t parent,
             std::uint64_t req = 0)
      : clock_(&clock) {
    if (SpanLog* log = spans()) {
      id_ = log->open(std::move(name), parent, req, clock_->now());
    }
  }
  ~ScopedSpan() {
    if (SpanLog* log = spans(); log != nullptr && id_ != 0) {
      log->close(id_, clock_->now());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const noexcept { return id_; }

 private:
  const Clock* clock_;
  std::uint64_t id_ = 0;
};

// ---- run description and result --------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // span file (trace runs only)
};

struct RunResult {
  Report e2e;    // end-to-end metrics (untraced sessions only)
  Report layer;  // per-layer metrics and the workload's virtual results
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool outputs_ok = true;         // every delivered output matched its check
  std::vector<std::string> notes; // sample counts, first failure messages
  /// Counts one failed op; the first few reasons go into the notes.
  void fail(const std::string& why);
  std::uint64_t failure_notes = 0;
};

/// Deterministic 64-bit mix of (seed, a, b, c): payload bytes and
/// collective inputs are derived from it, so the same seed gives the same
/// inputs and every receiver can recompute what it must have received.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                  std::uint64_t c = 0);

// ---- entry points ------------------------------------------------------------

/// The four workloads.  Each runs sessions (set-up + one fixed pass of
/// work) until `opt.seconds` of host time are used, reads the virtual-time
/// results from the first session only, and fills `out`.
void run_p2p(const Options& opt, RunResult& out);
void run_coll64(const Options& opt, RunResult& out);
void run_nas4(const Options& opt, RunResult& out);
void run_nasfault(const Options& opt, RunResult& out);

/// Layer-entry ladder: the same 4 B round trip entered at the bare DES
/// ticker, ib verbs, the rdmach channel, ch3 and mpi, in this process.
void run_ladder(std::uint64_t seed, RunResult& out);

// ---- host-speed reference ----------------------------------------------------
// The machine the benchmark shares runs the stack up to 1.6x slower for
// minutes at a time (memory contention from other tenants; a pure ALU loop
// does not slow down).  Host timings are therefore scaled by a reference
// measured around each pass: a small event loop written here, in the
// benchmark, with the stack's mix of heap-ordered events, std::function
// calls and short-lived allocations.  It tracks the stack's slow-downs, and
// no change to the library can move it.

/// Host seconds of one fixed run of the reference loop.
double reference_run_s();

/// Roughly the reference loop's host time on a quiet machine (a 4-core Xeon
/// VM, gcc 12, RelWithDebInfo): scaled host seconds are seconds on a machine
/// where the reference takes exactly this long.
inline constexpr double kReferenceSeconds = 0.015;

/// Peak resident set in MB (ru_maxrss) of this process or, if larger, of
/// the largest session child it waited for.
double peak_rss_mb();

}  // namespace perfbench
