// Shared helpers for the SDVM benchmark harness. Table benches run the
// full daemon stack under the discrete-event simulator, so "time" is
// virtual seconds on the modeled cluster — the quantity the paper reports.
//
// Every run also captures the cluster-wide aggregated metrics snapshot
// (the same kMetricsQuery data sdvm-top shows), and append_json_record()
// persists one JSON line per run into BENCH_<name>.json so sweeps can be
// post-processed without re-running.
#pragma once

#include <cstdio>
#include <string>

#include "apps/primes.hpp"
#include "sim/sim_cluster.hpp"

namespace sdvm::bench {

struct RunResult {
  double seconds = 0;       // virtual makespan
  std::int64_t exit_code = -1;
  std::uint64_t executed = 0;
  std::uint64_t messages = 0;
  std::uint64_t help_requests = 0;
  bool ok = false;
  /// Cluster-wide aggregated metrics at end of run (all sites merged).
  metrics::MetricsSnapshot metrics;
};

/// Captures the cluster-wide aggregated metrics snapshot through the
/// abstract Cluster facade — works identically for SimCluster,
/// LocalCluster and TcpNode handles.
inline void capture_metrics(Cluster& cluster, RunResult& r) {
  auto cs = cluster.cluster_status(/*via_index=*/0, 2 * kNanosPerSecond);
  if (cs.is_ok()) r.metrics = cs.value().aggregate();
}

inline RunResult run_primes_sim(int sites, const apps::PrimesParams& params,
                                const SiteConfig& base = {},
                                sim::SimCluster::Options options = {}) {
  sim::SimCluster cluster(options);
  cluster.add_sites(sites, /*speed=*/1.0, base);
  Nanos start = cluster.now();
  // Drive the run through the Cluster facade (run == run_program in sim).
  Cluster& handle = cluster;
  auto pid = handle.start_program(apps::make_primes_program(params));
  RunResult r;
  if (!pid.is_ok()) return r;
  auto code = handle.run(pid.value(), 100'000 * kNanosPerSecond);
  if (!code.is_ok()) return r;
  r.ok = true;
  r.exit_code = code.value();
  r.seconds = static_cast<double>(cluster.now() - start) / kNanosPerSecond;
  capture_metrics(handle, r);
  r.executed = r.metrics.counter("proc.executed");
  r.messages = r.metrics.counter("msg.sent");
  r.help_requests = r.metrics.counter("sched.help_requests_sent");
  return r;
}

/// Appends one JSON record (a single line) to BENCH_<name>.json in the
/// working directory: run parameters, headline numbers, and the full
/// cluster-wide metrics snapshot. `params_json` is a JSON fragment like
/// "\"sites\":4,\"p\":100" (no surrounding braces).
inline void append_json_record(const std::string& name,
                               const std::string& params_json,
                               const RunResult& r) {
  std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\"bench\":\"%s\",%s%s\"ok\":%s,\"seconds\":%.6f,"
               "\"exit_code\":%lld,\"executed\":%llu,\"messages\":%llu,"
               "\"help_requests\":%llu,\"metrics\":%s}\n",
               metrics::json_escape(name).c_str(), params_json.c_str(),
               params_json.empty() ? "" : ",", r.ok ? "true" : "false",
               r.seconds, static_cast<long long>(r.exit_code),
               static_cast<unsigned long long>(r.executed),
               static_cast<unsigned long long>(r.messages),
               static_cast<unsigned long long>(r.help_requests),
               r.metrics.to_json().c_str());
  std::fclose(f);
}

/// The paper's reference per-candidate cost: chosen so a 1-site run of
/// p=100/width=10 lands near the paper's 33.9 s on the virtual
/// "Pentium IV" (speed 1.0).
inline constexpr std::int64_t kPaperWorkMult = 58'000'000;

}  // namespace sdvm::bench
