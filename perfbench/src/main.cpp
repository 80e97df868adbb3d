// perfbench: one workload of the repository benchmark in one process.
//
//   perfbench --workload p2p|coll64|nas4|nasfault --seed N --seconds S
//             [--trace-out FILE]
//
// Prints a human-readable summary, then one JSON line with the end-to-end
// metrics, the per-layer metrics, the op accounting and notes (sample
// counts, failures).  With --trace-out the run also executes the
// layer-entry ladder, traced passes with a sim::TraceSink attached, and
// writes the benchmark-side spans to FILE.  run.py wraps this binary.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "perfbench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

/// Virtual-time results are workload-specific; a workload that does not
/// run the measurement reports 0 ("not exercised here") so every run
/// carries the same per-layer keys.
constexpr const char* kWorkloadResults[][2] = {
    {"virt_lat_4b_us", "vus"},        {"virt_bw_64k_mbps", "MB/s"},
    {"virt_bw_1m_mbps", "MB/s"},      {"virt_barrier_us", "vus"},
    {"virt_allreduce_8b_us", "vus"},  {"virt_allreduce_64k_us", "vus"},
    {"virt_alltoall_us", "vus"},      {"virt_mops_geomean", "Mop/s"},
    {"fault_loss_pct", "%"},          {"nas.is.virt_mops", "Mop/s"},
    {"nas.ft.virt_mops", "Mop/s"},    {"nas.cg.virt_mops", "Mop/s"},
    {"nas.mg.virt_mops", "Mop/s"},    {"nas.lu.virt_mops", "Mop/s"},
};

std::string json_string(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace-out") {
      o.trace = true;
      o.trace_out = v;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  void (*workload)(const Options&, RunResult&) = nullptr;
  if (opt.workload == "p2p") workload = run_p2p;
  if (opt.workload == "coll64") workload = run_coll64;
  if (opt.workload == "nas4") workload = run_nas4;
  if (opt.workload == "nasfault") workload = run_nasfault;
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }

  SpanLog log;
  RunResult out;
  if (opt.trace) {
    set_spans(&log);
    run_ladder(opt.seed, out);
  }
  workload(opt, out);
  set_spans(nullptr);

  out.layer.set("failed_frac",
                out.attempted == 0 ? 1.0
                                   : static_cast<double>(out.failed) /
                                         static_cast<double>(out.attempted),
                "ratio");
  if (opt.trace) {
    if (!log.write(opt.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
      return 1;
    }
    out.notes.push_back("wrote " + std::to_string(log.size()) + " spans to " +
                        opt.trace_out);
  }

  // Untraced runs print the end-to-end metrics and the workload's own
  // results (virtual time, failed_frac); trace runs print every metric.
  std::printf("# perfbench workload=%s seed=%llu build=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              PERFBENCH_BUILD_TYPE);
  auto print = [](const std::string& name, const std::pair<double, std::string>& m) {
    std::printf("  %-28s %18.6f %s\n", name.c_str(), m.first, m.second.c_str());
  };
  for (const auto& [name, m] : out.e2e.items()) print(name, m);
  for (const auto& [name, m] : out.layer.items()) {
    bool result = name == "failed_frac";
    for (const auto& r : kWorkloadResults) result = result || name == r[0];
    if (opt.trace || result) print(name, m);
  }
  for (const std::string& n : out.notes) std::printf("  # %s\n", n.c_str());

  for (const auto& [name, unit] : kWorkloadResults) {
    if (!out.layer.has(name)) out.layer.set(name, 0.0, unit);
  }

  std::string notes = "[";
  for (std::size_t i = 0; i < out.notes.size(); ++i) {
    notes += (i ? ", " : "") + json_string(out.notes[i]);
  }
  notes += "]";
  const bool correct = out.outputs_ok && out.failed == 0 && out.attempted > 0;
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"build_type\": %s, "
      "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"e2e\": %s, \"layer\": %s, \"notes\": %s}\n",
      json_string(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), out.e2e.json().c_str(),
      out.layer.json().c_str(), notes.c_str());
  return 0;
}
