// NAS under fault: what a fault campaign costs on real kernels.
//
// For each NAS kernel the bench runs a clean baseline and the four seeded
// standard mixes (kill-only, corrupt+exhaust, rail-down, combined) on the
// same two-rail fabric and the same integrity-checked zero-copy channel,
// with faults keyed to kernel progress through sim::FaultCampaign.  Every
// run must finish with a *numerically verified* result -- recovery that
// returns wrong answers fast is worthless -- and the combined mix must
// cost at most 25% of clean Mop/s (the bound the recovery machinery is
// engineered to; regressions fail the bench).  Emits BENCH_nasfault.json.
//
// Default scope: IS/FT/BT/CG/MG class A on 4 nodes (the paper's class-A
// suite corners).  NASFAULT_FULL=1 widens to all eight kernels plus the
// class-B/8 runs; --smoke narrows to IS alone for the perf ctest label.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign_util.hpp"

namespace {

struct RunSpec {
  std::string kernel;
  int nprocs;
  nas::Class cls;
};

constexpr double kMaxCombinedLossPct = 25.0;
constexpr std::uint64_t kSeed = 2026;

/// Thrown from the phase hook inside the victim's CG iteration loop: the
/// test's model of process death (the rank-main stops executing; the fault
/// schedule then takes its network down).
struct RankKilled {};

struct ShrinkOutcome {
  bool ok = false;
  double detect_us = 0;   // death -> first survivor ProcFailedError
  double recover_us = 0;  // death -> shrunk communicator in hand
  double mops = 0;        // the 3-rank re-run
  std::string detail;
};

double to_us(sim::Tick t) {
  return static_cast<double>(t) / static_cast<double>(sim::usec(1));
}

/// Shrink-and-continue: CG class A on 4 ranks with the failure detector
/// armed; rank 3 dies at iteration 5.  The survivors must each surface
/// ProcFailedError (or RevokedError once a peer revokes), run the ULFM
/// revoke/agree/shrink sequence, and finish a full CG class A on the
/// 3-rank survivor communicator with a numerically verified result.
ShrinkOutcome run_shrink_and_continue(const mpi::RuntimeConfig& base,
                                      const ib::FabricConfig& fcfg) {
  constexpr int kProcs = 4;
  constexpr int kVictim = 3;
  constexpr int kKillIter = 5;
  ShrinkOutcome out;
  mpi::RuntimeConfig cfg = base;
  cfg.stack.channel.ft_detector = true;
  sim::Simulator sim;
  ib::Fabric fabric(sim, fcfg);
  sim::FaultSchedule faults;
  fabric.attach_faults(&faults);
  pmi::Job job(fabric, kProcs);

  sim::Tick death_at = 0, first_error_at = 0, shrunk_at = 0;
  int continued = 0;
  bool verified = false;
  nas::ScopedPhaseHook hook([&](const nas::PhaseEvent& e) {
    if (e.rank == kVictim && e.phase == "cg.iter" &&
        e.iteration == kKillIter) {
      throw RankKilled{};
    }
  });

  // Runtimes owned outside the rank bodies: nobody finalizes after a death,
  // so per-rank teardown must wait for the full drain.
  std::vector<std::unique_ptr<mpi::Runtime>> rts(kProcs);
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    rts[ctx.rank] = std::make_unique<mpi::Runtime>(ctx, cfg);
    mpi::Runtime& rt = *rts[ctx.rank];
    co_await rt.init();
    bool died = false, failed = false;
    try {
      co_await nas::kernel("cg")(rt.world(), ctx, nas::Class::A);
    } catch (const RankKilled&) {
      died = true;
    } catch (const mpi::MpiError&) {
      // ProcFailedError from the detector, or RevokedError once a faster
      // survivor has already revoked -- either way, recover.
      failed = true;
    }
    if (died) {
      death_at = sim.now();
      faults.rank_down("node" + std::to_string(kVictim));
      co_return;  // process gone; no finalize
    }
    if (!failed) co_return;  // fault-free run (never happens here)
    if (first_error_at == 0) first_error_at = sim.now();
    rt.world().revoke();
    co_await rt.world().agree(0);
    mpi::Communicator* sc = co_await rt.world().shrink();
    if (sc == nullptr || sc->size() != kProcs - 1) co_return;
    if (shrunk_at == 0) shrunk_at = sim.now();
    nas::Result r = co_await nas::kernel("cg")(*sc, ctx, nas::Class::A);
    if (sc->rank() == 0) {
      verified = r.verified;
      out.mops = r.mops;
      out.detail = r.detail;
    }
    ++continued;
  });
  sim.run_until(sim::usec(120'000'000));

  out.ok = continued == kProcs - 1 && verified && death_at > 0 &&
           first_error_at > death_at && shrunk_at > first_error_at;
  out.detect_us = to_us(first_error_at - death_at);
  out.recover_us = to_us(shrunk_at - death_at);
  if (!out.ok && out.detail.empty()) {
    out.detail = "continued=" + std::to_string(continued) +
                 " verified=" + std::to_string(verified) +
                 " death_at=" + std::to_string(death_at) +
                 " first_error_at=" + std::to_string(first_error_at) +
                 " shrunk_at=" + std::to_string(shrunk_at);
  }
  return out;
}

/// Gray-failure campaigns (degrade-only, degrade+kill) on the adaptive
/// design with the health detector armed.  The contract the table checks:
/// a degrade-only run has ZERO false kDead convictions (no ChannelErrors,
/// no watchdog trips -- nothing actually died), quarantine does the
/// mitigating (at least one rail pulled proactively across the table), and
/// the degrade-only runtime loss stays within 30% of clean.  Emits
/// BENCH_grayfault.json.
bool run_gray_section(const std::vector<RunSpec>& specs,
                      const ib::FabricConfig& fabric) {
  constexpr double kMaxDegradeLossPct = 30.0;
  mpi::RuntimeConfig cfg =
      benchutil::campaign_config(rdmach::Design::kAdaptive);
  cfg.stack.channel.health_detector = true;
  // NAS alltoallv goodput is heavy-tailed (rendezvous handshakes overlap
  // with eager bursts), so the default 3-sigma band swallows a 10x-degraded
  // rail.  The campaign runs the detector at 1.5 sigma: tight enough to see
  // the degrade through the jitter, and the consecutive-sample accrual
  // still keeps ordinary outliers from tripping a quarantine.
  cfg.stack.channel.health_soft_sigma = 1.5;
  // Probe aggressively: the degrade windows are op-indexed, and a
  // quarantined rail only burns through its window via probe traffic.
  cfg.stack.channel.health_probe_interval = 4;
  benchutil::JsonResult json("nas_grayfault");
  bool ok = true;
  std::uint64_t total_quarantines = 0;

  benchutil::title(
      "NAS under gray failure: degraded links, suspicion, quarantine "
      "(adaptive, 2 rails, health detector on)");
  std::printf("%-4s %-14s %8s %7s %6s %6s %6s %6s %6s %9s\n", "bm", "mix",
              "Mop/s", "loss%", "quar", "reinst", "susp", "wdog", "fail",
              "degrade_ms");

  for (const RunSpec& spec : specs) {
    const std::string phase = benchutil::phase_of(spec.kernel);
    const benchutil::CampaignOutcome clean = benchutil::run_nas_campaign(
        spec.kernel, spec.nprocs, spec.cls, cfg, nullptr, fabric);
    if (!clean.completed || !clean.result.verified) {
      std::printf("%-4s gray clean run failed\n", spec.kernel.c_str());
      ok = false;
      continue;
    }
    json.add(spec.kernel + "/clean", static_cast<std::size_t>(spec.nprocs),
             clean.result.mops, "mops");

    for (const auto& [mix_name, mix] : benchutil::gray_mixes()) {
      sim::FaultCampaign campaign(kSeed);
      mix(campaign, phase, spec.nprocs);
      const benchutil::CampaignOutcome r = benchutil::run_nas_campaign(
          spec.kernel, spec.nprocs, spec.cls, cfg, &campaign, fabric);
      const std::string series = spec.kernel + "/" + mix_name;
      if (r.wedged || !r.completed || r.errors > 0 || !r.result.verified) {
        std::printf("%-4s %-14s FAILED: %s\n", spec.kernel.c_str(),
                    mix_name.c_str(),
                    r.wedged ? benchutil::wedge_reason(r)
                             : (r.errors > 0 ? r.error_whats.front().c_str()
                                             : "result not verified"));
        ok = false;
        continue;
      }
      const double loss = 100.0 * (1.0 - r.result.mops / clean.result.mops);
      std::printf(
          "%-4s %-14s %8.1f %7.1f %6llu %6llu %6llu %6llu %6llu %9.1f\n",
          r.result.name.c_str(), mix_name.c_str(), r.result.mops, loss,
          static_cast<unsigned long long>(r.stats.rail_quarantines),
          static_cast<unsigned long long>(r.stats.rail_reinstates),
          static_cast<unsigned long long>(r.stats.suspicion_trips),
          static_cast<unsigned long long>(r.stats.watchdog_trips),
          static_cast<unsigned long long>(r.stats.rail_failovers),
          static_cast<double>(r.stats.degraded_ns) / 1e6);
      json.add(series, static_cast<std::size_t>(spec.nprocs), r.result.mops,
               "mops");
      json.add(series + "/loss", static_cast<std::size_t>(spec.nprocs), loss,
               "pct");
      json.add(series + "/quarantines",
               static_cast<std::size_t>(spec.nprocs),
               static_cast<double>(r.stats.rail_quarantines), "count");
      json.add(series + "/degraded",
               static_cast<std::size_t>(spec.nprocs),
               static_cast<double>(r.stats.degraded_ns) / 1e6, "ms");
      total_quarantines += r.stats.rail_quarantines;
      if (mix_name == "degrade") {
        // Degrade-only: nothing died, so nothing may be convicted.
        if (r.stats.watchdog_trips > 0) {
          std::printf("%-4s degrade-only run tripped the watchdog (false "
                      "kDead)\n",
                      spec.kernel.c_str());
          ok = false;
        }
        if (loss > kMaxDegradeLossPct) {
          std::printf("%-4s degrade-only loss %.1f%% exceeds the %.0f%% "
                      "bound\n",
                      spec.kernel.c_str(), loss, kMaxDegradeLossPct);
          ok = false;
        }
      }
    }
  }
  if (ok && total_quarantines == 0) {
    std::printf("gray: no run ever quarantined a rail -- the detector "
                "never mitigated\n");
    ok = false;
  }
  json.write("BENCH_grayfault.json");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::smoke_mode(argc, argv);
  const bool full = std::getenv("NASFAULT_FULL") != nullptr;
  bool gray_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--gray") gray_only = true;
  }

  std::vector<RunSpec> specs;
  if (smoke) {
    specs = {{"is", 4, nas::Class::A}};
  } else if (full) {
    for (const auto& [name, fn] : nas::suite()) {
      specs.push_back({name, 4, nas::Class::A});
    }
    for (const char* k : {"is", "ft", "bt", "cg", "mg"}) {
      specs.push_back({k, 8, nas::Class::B});
    }
  } else {
    specs = {{"is", 4, nas::Class::A},
             {"ft", 4, nas::Class::A},
             {"bt", 4, nas::Class::A},
             {"cg", 4, nas::Class::A},
             {"mg", 4, nas::Class::A}};
  }

  const ib::FabricConfig fabric = benchutil::two_rail_fabric();
  bool ok = true;

  if (!gray_only) {
    const mpi::RuntimeConfig cfg =
        benchutil::campaign_config(rdmach::Design::kZeroCopy);
    benchutil::JsonResult json("nas_fault");

    benchutil::title(
        "NAS under fault: Mop/s vs clean per seeded mix (zero-copy, 2 rails)");
    std::printf("%-4s %-16s %8s %7s %6s %6s %9s %6s %5s\n", "bm", "mix",
                "Mop/s", "loss%", "recov", "wdog", "replayB", "crcRx", "fail");

    for (const RunSpec& spec : specs) {
      const std::string phase = benchutil::phase_of(spec.kernel);
      const benchutil::CampaignOutcome clean = benchutil::run_nas_campaign(
          spec.kernel, spec.nprocs, spec.cls, cfg, nullptr, fabric);
      const std::string label = std::string(nas::to_string(spec.cls)) + "/" +
                                std::to_string(spec.nprocs);
      if (!clean.completed || !clean.result.verified) {
        std::printf("%-4s clean run failed (%s)\n", spec.kernel.c_str(),
                    label.c_str());
        ok = false;
        continue;
      }
      std::printf("%-4s %-16s %8.1f %7s %6s %6s %9s %6s %5s  [%s]\n",
                  clean.result.name.c_str(), "clean", clean.result.mops, "-",
                  "-", "-", "-", "-", "-", label.c_str());
      json.add(spec.kernel + "/clean", static_cast<std::size_t>(spec.nprocs),
               clean.result.mops, "mops");

      for (const auto& [mix_name, mix] : benchutil::standard_mixes()) {
        sim::FaultCampaign campaign(kSeed);
        mix(campaign, phase, spec.nprocs);
        const benchutil::CampaignOutcome r = benchutil::run_nas_campaign(
            spec.kernel, spec.nprocs, spec.cls, cfg, &campaign, fabric);
        const std::string series = spec.kernel + "/" + mix_name;
        if (r.wedged || !r.completed || r.errors > 0 || !r.result.verified) {
          std::printf("%-4s %-16s FAILED: %s\n", spec.kernel.c_str(),
                      mix_name.c_str(),
                      r.wedged ? benchutil::wedge_reason(r)
                               : (r.errors > 0
                                      ? r.error_whats.front().c_str()
                                      : "result not verified"));
          ok = false;
          continue;
        }
        const double loss =
            100.0 * (1.0 - r.result.mops / clean.result.mops);
        std::printf("%-4s %-16s %8.1f %7.1f %6llu %6llu %9llu %6llu %5llu\n",
                    r.result.name.c_str(), mix_name.c_str(), r.result.mops,
                    loss,
                    static_cast<unsigned long long>(r.stats.recoveries),
                    static_cast<unsigned long long>(r.stats.watchdog_trips),
                    static_cast<unsigned long long>(r.stats.replayed_bytes),
                    static_cast<unsigned long long>(r.stats.retransmits),
                    static_cast<unsigned long long>(r.stats.rail_failovers));
        json.add(series, static_cast<std::size_t>(spec.nprocs), r.result.mops,
                 "mops");
        json.add(series + "/loss", static_cast<std::size_t>(spec.nprocs), loss,
                 "pct");
        json.add(series + "/recoveries", static_cast<std::size_t>(spec.nprocs),
                 static_cast<double>(r.stats.recoveries), "count");
        json.add(series + "/replayed",
                 static_cast<std::size_t>(spec.nprocs),
                 static_cast<double>(r.stats.replayed_bytes), "bytes");
        if (mix_name == "combined" && loss > kMaxCombinedLossPct) {
          std::printf(
              "%-4s combined-mix loss %.1f%% exceeds the %.0f%% bound\n",
              spec.kernel.c_str(), loss, kMaxCombinedLossPct);
          ok = false;
        }
      }
    }

    benchutil::title(
        "Shrink-and-continue: CG class A, rank 3 dies at iteration 5");
    const ShrinkOutcome shrink = run_shrink_and_continue(cfg, fabric);
    if (shrink.ok) {
      std::printf(
          "cg   shrink-continue  %8.1f   detect %.0f us, shrink %.0f us, "
          "verified on 3 ranks\n",
          shrink.mops, shrink.detect_us, shrink.recover_us);
      json.add("cg/shrink", 3, shrink.mops, "mops");
      json.add("cg/shrink/detect", 4, shrink.detect_us, "us");
      json.add("cg/shrink/recover", 4, shrink.recover_us, "us");
    } else {
      std::printf("cg   shrink-continue  FAILED: %s\n", shrink.detail.c_str());
      ok = false;
    }

    json.write("BENCH_nasfault.json");
  }

  ok = run_gray_section(specs, fabric) && ok;

  if (!ok) {
    std::printf("\nnas_fault: FAILED (see rows above)\n");
    return 1;
  }
  std::printf("\nnas_fault: all runs verified; combined-mix loss within "
              "%.0f%%\n",
              kMaxCombinedLossPct);
  return 0;
}
