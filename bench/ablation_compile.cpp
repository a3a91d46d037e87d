// Experiment A5 (paper §4, code manager): "Test runs show that the
// compilation on-the-fly is indeed fast enough not to slow the system too
// much, mainly since microthreads are short code fragments only."
//
// A heterogeneous cluster (1 linux code-home + 7 foreign-platform sites)
// runs the prime job; every foreign site must pull source and compile
// before first execution, and uploads its binary so later requesters of
// the same platform get "the binary code at first go".
#include <cstdio>

#include "bench_util.hpp"

using namespace sdvm;
using bench::kPaperWorkMult;

namespace {

struct Obs {
  double seconds = 0;
  std::uint64_t compiles = 0;
  std::uint64_t source_fetches = 0;
  std::uint64_t binary_fetches = 0;
  std::uint64_t uploads = 0;
};

Obs run(bool heterogeneous) {
  sim::SimCluster cluster;
  SiteConfig home_cfg;
  home_cfg.platform = "linux-x86";
  cluster.add_sites(1, 1.0, home_cfg);
  SiteConfig worker_cfg;
  worker_cfg.platform = heterogeneous ? "hpux-parisc" : "linux-x86";
  cluster.add_sites(7, 1.0, worker_cfg);

  apps::PrimesParams params;
  params.p = 100;
  params.width = 20;
  params.work_mult = kPaperWorkMult;

  Nanos t0 = cluster.now();
  auto pid = cluster.start_program(apps::make_primes_program(params));
  if (!pid.is_ok()) std::abort();
  auto code = cluster.run_program(pid.value(), 100'000 * kNanosPerSecond);
  if (!code.is_ok()) std::abort();

  Obs o;
  o.seconds = static_cast<double>(cluster.now() - t0) / kNanosPerSecond;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    metrics::MetricsSnapshot m = cluster.site(i).introspect().metrics;
    o.compiles += m.counter("code.compiles");
    o.source_fetches += m.counter("code.source_fetches");
    o.binary_fetches += m.counter("code.binary_fetches");
    o.uploads += m.counter("code.uploads_received");
  }
  return o;
}

}  // namespace

int main() {
  std::printf("A5: on-the-fly compilation (8 sites, primes p=100 width=20)\n");
  Obs homo = run(false);
  Obs hetero = run(true);

  std::printf("%16s | %10s | %8s | %10s | %10s | %8s\n", "cluster",
              "makespan", "compiles", "src fetch", "bin fetch", "uploads");
  std::printf("--------------------------------------------------------------------------\n");
  std::printf("%16s | %9.1fs | %8llu | %10llu | %10llu | %8llu\n",
              "homogeneous", homo.seconds,
              static_cast<unsigned long long>(homo.compiles),
              static_cast<unsigned long long>(homo.source_fetches),
              static_cast<unsigned long long>(homo.binary_fetches),
              static_cast<unsigned long long>(homo.uploads));
  std::printf("%16s | %9.1fs | %8llu | %10llu | %10llu | %8llu\n",
              "1+7 heterogeneous", hetero.seconds,
              static_cast<unsigned long long>(hetero.compiles),
              static_cast<unsigned long long>(hetero.source_fetches),
              static_cast<unsigned long long>(hetero.binary_fetches),
              static_cast<unsigned long long>(hetero.uploads));
  std::printf("\ncompile-on-the-fly slowdown: %+.2f%%  (paper: \"fast enough "
              "not to slow the system too much\")\n",
              (hetero.seconds / homo.seconds - 1.0) * 100.0);
  return 0;
}
