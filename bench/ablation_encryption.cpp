// Experiment A3 (paper §4, security manager): "If a cluster can be judged
// secure ... the security manager can be disabled in favor of a
// performance gain. In this case, all communication is performed
// unencrypted." Measures the real CPU cost of sealing every SDMessage
// (threads mode, wall clock) plus the traffic blow-up.
#include <chrono>
#include <cstdio>

#include "api/local_cluster.hpp"
#include "apps/primes.hpp"

using namespace sdvm;

namespace {

struct Obs {
  double seconds = 0;
  std::uint64_t sealed = 0;
  std::uint64_t bytes = 0;
};

Obs run(bool encrypt) {
  LocalCluster cluster;
  SiteConfig cfg;
  cfg.encrypt = encrypt;
  cfg.cluster_password = "bench";
  cluster.add_sites(3, cfg);

  apps::PrimesParams params;
  params.p = 300;
  params.width = 16;
  params.work_mult = 0;
  params.spin = 20'000;  // enough per-test work that frames distribute

  auto t0 = std::chrono::steady_clock::now();
  auto pid = cluster.start_program(apps::make_primes_program(params));
  if (!pid.is_ok()) std::abort();
  auto code = cluster.wait_program(pid.value(), 120 * kNanosPerSecond);
  if (!code.is_ok()) std::abort();

  Obs o;
  o.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    o.sealed += cluster.site(i).introspect().metrics.counter("sec.sealed");
  }
  o.bytes = cluster.network().total_stats().bytes;
  return o;
}

}  // namespace

int main() {
  std::printf("A3: security manager on/off (3 sites, primes p=300, threads "
              "mode)\n");
  // Warm up allocator/threads once so the comparison is fair.
  (void)run(false);
  Obs plain = run(false);
  Obs sealed = run(true);

  std::printf("%12s | %10s | %12s | %12s\n", "mode", "wall time",
              "msgs sealed", "wire bytes");
  std::printf("------------------------------------------------------\n");
  std::printf("%12s | %9.3fs | %12llu | %12llu\n", "plaintext", plain.seconds,
              static_cast<unsigned long long>(plain.sealed),
              static_cast<unsigned long long>(plain.bytes));
  std::printf("%12s | %9.3fs | %12llu | %12llu\n", "encrypted", sealed.seconds,
              static_cast<unsigned long long>(sealed.sealed),
              static_cast<unsigned long long>(sealed.bytes));
  std::printf("\nencryption cost: %+.1f%% wall time, %+.1f%% wire bytes "
              "(nonce+tag per message)\n",
              (sealed.seconds / plain.seconds - 1.0) * 100.0,
              (static_cast<double>(sealed.bytes) /
                   static_cast<double>(plain.bytes) -
               1.0) *
                  100.0);
  return 0;
}
