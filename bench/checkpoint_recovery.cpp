// Experiment A6 (paper §2.2/§6, crash management [4]): checkpointing cost
// and recovery behaviour. Sweeps the checkpoint interval to measure the
// steady-state overhead, then kills a site mid-run and reports the lost
// time relative to an undisturbed run.
#include <cstdio>

#include "bench_util.hpp"

using namespace sdvm;
using bench::kPaperWorkMult;

namespace {

apps::PrimesParams job() {
  apps::PrimesParams p;
  p.p = 150;
  p.width = 16;
  p.work_mult = kPaperWorkMult / 2;
  return p;
}

double run_once(SiteConfig cfg, bool kill_mid_run, std::uint64_t* checkpoints,
                std::uint64_t* recoveries) {
  sim::SimCluster cluster;
  cluster.add_sites(4, 1.0, cfg);
  Nanos t0 = cluster.now();
  auto pid = cluster.start_program(apps::make_primes_program(job()));
  if (!pid.is_ok()) return -1;
  if (kill_mid_run) {
    // Strictly after the first commit of even the slowest interval in the
    // sweep — a crash before any committed epoch is unrecoverable by
    // design (nothing to roll back to) and the job would hang.
    cluster.loop().run_for(5 * kNanosPerSecond);
    cluster.kill(3);
  }
  auto code = cluster.run_program(pid.value(), 100'000 * kNanosPerSecond);
  if (!code.is_ok()) return -1;
  for (std::size_t i = 0; i + 1 < cluster.size(); ++i) {  // skip the victim
    metrics::MetricsSnapshot m = cluster.site(i).introspect().metrics;
    if (checkpoints != nullptr) {
      *checkpoints += m.counter("crash.checkpoints_committed");
    }
    if (recoveries != nullptr) *recoveries += m.counter("crash.recoveries");
  }
  return static_cast<double>(cluster.now() - t0) / kNanosPerSecond;
}

}  // namespace

int main() {
  std::printf("A6: checkpointing and recovery (4 sites, primes p=150)\n\n");

  SiteConfig off;
  off.checkpoints_enabled = false;
  double baseline = run_once(off, false, nullptr, nullptr);
  std::printf("no checkpoints, no crash     : %7.1fs (baseline)\n\n", baseline);

  std::printf("checkpoint interval sweep (no crash):\n");
  std::printf("%10s | %10s | %12s | %8s\n", "interval", "makespan",
              "checkpoints", "overhead");
  for (Nanos interval : {kNanosPerSecond / 4, kNanosPerSecond / 2,
                         kNanosPerSecond, 2 * kNanosPerSecond}) {
    SiteConfig cfg;
    cfg.checkpoints_enabled = true;
    cfg.checkpoint_interval = interval;
    std::uint64_t ckpts = 0;
    double t = run_once(cfg, false, &ckpts, nullptr);
    std::printf("%8.2fs | %9.1fs | %12llu | %+7.2f%%\n",
                static_cast<double>(interval) / kNanosPerSecond, t,
                static_cast<unsigned long long>(ckpts),
                (t / baseline - 1.0) * 100.0);
  }

  std::printf("\ncrash at t=5s, recovery from last checkpoint:\n");
  std::printf("%10s | %10s | %12s | %10s\n", "interval", "makespan",
              "recoveries", "lost time");
  for (Nanos interval : {kNanosPerSecond / 2, kNanosPerSecond,
                         2 * kNanosPerSecond}) {
    SiteConfig cfg;
    cfg.checkpoints_enabled = true;
    cfg.checkpoint_interval = interval;
    cfg.heartbeat_interval = 100'000'000;
    cfg.failure_timeout = 400'000'000;
    std::uint64_t recov = 0;
    double t = run_once(cfg, true, nullptr, &recov);
    std::printf("%8.2fs | %9.1fs | %12llu | %+8.1fs\n",
                static_cast<double>(interval) / kNanosPerSecond, t,
                static_cast<unsigned long long>(recov), t - baseline);
  }
  std::printf("\nshorter intervals: more checkpoint cost, less work lost per "
              "crash — the classic trade-off.\n");
  return 0;
}
