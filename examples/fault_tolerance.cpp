// Crash management demo (paper §2.2, §6): checkpointing + recovery.
//
// A four-site cluster runs a long job with periodic coordinated
// checkpoints. One site is killed abruptly (no sign-off, traffic black-
// holed). The heartbeat failure detector notices, the program's home site
// rolls every survivor back to the last committed epoch, adopts the dead
// site's shard, and the job completes with the correct answer.
//
//   $ ./fault_tolerance
#include <cstdio>

#include "apps/primes.hpp"
#include "sim/sim_cluster.hpp"

using namespace sdvm;

int main() {
  sim::SimCluster cluster;
  SiteConfig cfg;
  cfg.checkpoints_enabled = true;
  cfg.checkpoint_interval = kNanosPerSecond;      // checkpoint every 1 s
  cfg.heartbeat_interval = 100'000'000;           // 100 ms heartbeats
  cfg.failure_timeout = 400'000'000;              // 400 ms silence = dead
  cluster.add_sites(4, 1.0, cfg);
  std::printf("t=0s   4 sites up, checkpoints every 1s\n");

  apps::PrimesParams params;
  params.p = 200;
  params.width = 12;
  params.work_mult = 58'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  if (!pid.is_ok()) return 1;
  std::printf("t=0s   long prime job started (first %lld primes)\n",
              static_cast<long long>(params.p));

  cluster.loop().run_for(10 * kNanosPerSecond);
  std::printf("t=10s  checkpoints committed so far: %llu\n",
              static_cast<unsigned long long>(
                  cluster.site(0).introspect().metrics.counter(
                      "crash.checkpoints_committed")));

  std::printf("t=10s  >>> site 4 crashes (power cord incident) <<<\n");
  cluster.kill(3);

  auto code = cluster.run_program(pid.value(), 100'000 * kNanosPerSecond);
  if (!code.is_ok()) {
    std::fprintf(stderr, "job lost: %s\n", code.status().to_string().c_str());
    return 1;
  }
  double total = static_cast<double>(cluster.now()) / kNanosPerSecond;
  std::printf("t=%.0fs job finished anyway: %s primes (exit %lld)\n", total,
              cluster.outputs(0, pid.value()).back().c_str(),
              static_cast<long long>(code.value()));
  std::printf("\nrecoveries performed: %llu (rolled back to the last "
              "committed epoch;\nthe dead site's frames and memory were "
              "adopted by the coordinator)\n",
              static_cast<unsigned long long>(
                  cluster.site(0).introspect().metrics.counter(
                      "crash.recoveries")));
  return 0;
}
