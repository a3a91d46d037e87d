// The headline scenario of the paper's title: an *adaptive* cluster.
//
// A long computation starts on two slow "old" machines. Mid-run, two fast
// machines with a *different platform* join — they receive microthread
// source, compile it on the fly, upload binaries, and take over most of
// the work. Then one old machine signs off gracefully (hardware upgrade!),
// relocating its state. The program never notices.
//
//   $ ./adaptive_cluster
#include <cstdio>

#include "apps/primes.hpp"
#include "sim/sim_cluster.hpp"

using namespace sdvm;

int main() {
  sim::SimCluster cluster;

  SiteConfig old_machine;
  old_machine.platform = "linux-i686";
  old_machine.speed = 1.0;
  SiteConfig new_machine;
  new_machine.platform = "linux-arm64";  // no binaries exist for this yet
  new_machine.speed = 3.0;

  std::printf("t=0s    cluster: 2 old machines (speed 1.0, linux-i686)\n");
  cluster.add_sites(2, old_machine.speed, old_machine);

  apps::PrimesParams params;
  params.p = 300;
  params.width = 16;
  params.work_mult = 58'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  if (!pid.is_ok()) {
    std::fprintf(stderr, "start failed\n");
    return 1;
  }
  std::printf("t=0s    program started: first %lld primes, width %lld\n",
              static_cast<long long>(params.p),
              static_cast<long long>(params.width));

  cluster.loop().run_for(20 * kNanosPerSecond);
  std::printf("t=20s   2 fast machines join (speed 3.0, linux-arm64 — "
              "foreign platform)\n");
  cluster.add_sites(2, new_machine.speed, new_machine);

  cluster.loop().run_for(20 * kNanosPerSecond);
  std::printf("t=40s   old machine #2 signs off for its hardware upgrade\n");
  auto successor = cluster.sign_off(1);
  if (successor.is_ok()) {
    std::printf("        its microframes and memory moved to site %u\n",
                successor.value());
  }

  auto code = cluster.run_program(pid.value(), 100'000 * kNanosPerSecond);
  if (!code.is_ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 code.status().to_string().c_str());
    return 1;
  }
  double total = static_cast<double>(cluster.now()) / kNanosPerSecond;
  std::printf("t=%.0fs  program finished: %s primes found\n", total,
              cluster.outputs(0, pid.value()).back().c_str());

  std::printf("\nwho did the work:\n");
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto& site = cluster.site(i);
    metrics::MetricsSnapshot m = site.introspect().metrics;
    std::printf("  site %u (%-11s speed %.1f): %5llu microthreads, "
                "%llu on-the-fly compiles\n",
                site.id(), site.config().platform.c_str(),
                site.config().speed,
                static_cast<unsigned long long>(m.counter("proc.executed")),
                static_cast<unsigned long long>(m.counter("code.compiles")));
  }
  std::printf("\nnote: the arm64 sites received *source*, compiled it "
              "locally, and uploaded\nbinaries back to the code "
              "distribution site — no restart, no redeploy.\n");
  return 0;
}
