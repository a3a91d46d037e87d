// The paper's evaluation application (§5): find the first p primes,
// testing `width` candidates in parallel, on a cluster of n sites.
//
//   $ ./primes_cluster [sites] [p] [width] [sim|threads]
//
// In `sim` mode the cluster runs under virtual time with per-site speed
// modeling (how Table 1 is reproduced); in `threads` mode every site is a
// real daemon and the numbers are wall-clock.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "api/local_cluster.hpp"
#include "apps/primes.hpp"
#include "sim/sim_cluster.hpp"

using namespace sdvm;

int main(int argc, char** argv) {
  int sites = argc > 1 ? std::atoi(argv[1]) : 4;
  apps::PrimesParams params;
  params.p = argc > 2 ? std::atoll(argv[2]) : 100;
  params.width = argc > 3 ? std::atoll(argv[3]) : 10;
  bool simulated = argc <= 4 || std::strcmp(argv[4], "sim") == 0;
  params.work_mult = simulated ? 58'000'000 : 0;

  std::printf("first %lld primes, width %lld, %d sites (%s mode)\n",
              static_cast<long long>(params.p),
              static_cast<long long>(params.width), sites,
              simulated ? "sim" : "threads");

  if (simulated) {
    sim::SimCluster cluster;
    cluster.add_sites(sites);
    Nanos t0 = cluster.now();
    auto pid = cluster.start_program(apps::make_primes_program(params));
    if (!pid.is_ok()) {
      std::fprintf(stderr, "start failed: %s\n",
                   pid.status().to_string().c_str());
      return 1;
    }
    auto code = cluster.run_program(pid.value(), 100'000 * kNanosPerSecond);
    if (!code.is_ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   code.status().to_string().c_str());
      return 1;
    }
    double secs = static_cast<double>(cluster.now() - t0) / kNanosPerSecond;
    std::printf("found: %s primes\n",
                cluster.outputs(0, pid.value()).back().c_str());
    std::printf("virtual time: %.1f s on the modeled cluster\n", secs);
    for (int i = 0; i < sites; ++i) {
      std::printf("  site %d executed %llu microthreads\n", i + 1,
                  static_cast<unsigned long long>(
                      cluster.site(static_cast<std::size_t>(i))
                          .introspect()
                          .metrics.counter("proc.executed")));
    }
  } else {
    LocalCluster cluster;
    cluster.add_sites(sites);
    auto t0 = std::chrono::steady_clock::now();
    auto pid = cluster.start_program(apps::make_primes_program(params));
    if (!pid.is_ok()) {
      std::fprintf(stderr, "start failed: %s\n",
                   pid.status().to_string().c_str());
      return 1;
    }
    auto code = cluster.wait_program(pid.value(), 300 * kNanosPerSecond);
    if (!code.is_ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   code.status().to_string().c_str());
      return 1;
    }
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    std::printf("found: %s primes in %.3f s wall time\n",
                cluster.outputs(0, pid.value()).back().c_str(), secs);
  }
  return 0;
}
