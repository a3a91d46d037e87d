// Experiment A9 (paper §3.5): "Sites having less computing power are
// relieved while more powerful sites get more work due to the load
// balancing mechanism." Clusters of equal total capacity but different
// speed mixes run the same job; demand-driven help requests should keep
// the makespan near the uniform cluster's, with per-site work shares
// tracking speeds.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace sdvm;
using bench::kPaperWorkMult;

namespace {

struct Mix {
  const char* name;
  std::vector<double> speeds;  // total = 4.0 in every mix
};

}  // namespace

int main() {
  std::printf("A9: heterogeneous site speeds (total capacity 4.0, primes "
              "p=200 width=32)\n");
  std::printf("%-22s | %10s | per-site executed shares\n", "mix", "makespan");
  std::printf("---------------------------------------------------------------\n");

  for (const Mix& mix : {Mix{"4 x 1.0 (uniform)", {1, 1, 1, 1}},
                         Mix{"2.0 + 1.0 + 2 x 0.5", {2.0, 1.0, 0.5, 0.5}},
                         Mix{"3.0 + 3 x 0.33", {3.0, 0.34, 0.33, 0.33}},
                         Mix{"2 x 1.5 + 2 x 0.5", {1.5, 1.5, 0.5, 0.5}}}) {
    sim::SimCluster cluster;
    for (double speed : mix.speeds) {
      SiteConfig cfg;
      cfg.speed = speed;
      cfg.help_retry_interval = 500'000;
      cluster.add_site(cfg);
    }
    apps::PrimesParams params;
    params.p = 200;
    params.width = 32;
    params.work_mult = kPaperWorkMult;
    Nanos t0 = cluster.now();
    auto pid = cluster.start_program(apps::make_primes_program(params));
    if (!pid.is_ok()) return 1;
    auto code = cluster.run_program(pid.value(), 100'000 * kNanosPerSecond);
    if (!code.is_ok()) {
      std::fprintf(stderr, "run failed for mix %s\n", mix.name);
      return 1;
    }
    double secs = static_cast<double>(cluster.now() - t0) / kNanosPerSecond;

    std::uint64_t total = 0;
    std::vector<std::uint64_t> per_site;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      per_site.push_back(
          cluster.site(i).introspect().metrics.counter("proc.executed"));
      total += per_site.back();
    }
    std::printf("%-22s | %9.1fs |", mix.name, secs);
    for (std::size_t i = 0; i < per_site.size(); ++i) {
      std::printf(" %4.0f%%(x%.1f)",
                  100.0 * static_cast<double>(per_site[i]) /
                      static_cast<double>(total),
                  mix.speeds[i]);
    }
    std::printf("\n");
  }
  std::printf("\nwork shares follow speeds without any central planner — "
              "idle sites simply\nask for help less often when they are "
              "still busy (paper §3.5).\n");
  return 0;
}
