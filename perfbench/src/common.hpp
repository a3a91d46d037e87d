// Shared pieces of the SDVM benchmark binary: sample statistics, answer
// checks, registry deltas, layer probes and the report every workload
// fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/cluster.hpp"
#include "runtime/metrics.hpp"
#include "runtime/program.hpp"

namespace perfbench {

using sdvm::Nanos;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[nodiscard]] inline double seconds_since(
    std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A number as JSON, with every significant digit it was measured with.
[[nodiscard]] std::string json_num(double v);

/// A bag of samples with the quantiles the report prints. Quantiles use
/// the same "exclusive" interpolation as Python's statistics.quantiles.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double sum() const;
  /// Means of consecutive groups of `group` samples (an incomplete last
  /// group is dropped).
  [[nodiscard]] Samples group_means(std::size_t group) const;

 private:
  std::vector<double> v_;
};

/// The highest of p50/p75/p90/p95/p99 that still has at least ten samples
/// beyond it (0 when there are fewer than 20 samples).
[[nodiscard]] double tail_percentile(std::size_t n);

/// One reported metric: the median plus quartiles of its samples (a
/// scalar metric has q1 == q3 == value and n == 1).
struct Metric {
  double value = 0;
  std::string unit;
  double q1 = 0;
  double q3 = 0;
  std::size_t n = 1;
};

/// Everything a workload run produces. `metrics` holds the end-to-end set
/// (untraced run) or the per-layer set (traced run); `info` carries extra
/// record fields (workload parameters, percentile choices, top message
/// kinds) that are not metrics.
struct Report {
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> info;  // values are JSON fragments
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool deterministic = true;
  std::vector<std::string> problems;

  void set(const std::string& name, double value, const std::string& unit);
  void set(const std::string& name, const Samples& s, const std::string& unit);
  void note(const std::string& key, const std::string& json_value) {
    info[key] = json_value;
  }
  void problem(const std::string& what) { problems.push_back(what); }
};

/// Result of one closed-loop phase: per-program wall makespans.
struct Phase {
  Samples wall_s;
  Samples start_call_s;  // wall time of the start_program call alone
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double elapsed_s = 0;
};

/// Checks one finished program: exit code 0 and the expected last output
/// line. Returns false (and says why on stderr) otherwise.
bool verify(const char* workload, sdvm::Result<std::int64_t> code,
            const std::vector<std::string>& outputs,
            const std::string& expected);

/// Output line primes prints: the number of primes found when the round
/// that crossed `p` ends (apps::nth_prime locates that round).
[[nodiscard]] std::string primes_expected(std::int64_t p, std::int64_t width);

/// Cluster-wide registry snapshot summed from every site's introspect()
/// (no query traffic, so the simulator's event stream is not perturbed).
[[nodiscard]] sdvm::metrics::MetricsSnapshot registry(sdvm::Cluster& c);

/// Counter delta after - before (0 when absent).
[[nodiscard]] std::uint64_t delta(const sdvm::metrics::MetricsSnapshot& after,
                                  const sdvm::metrics::MetricsSnapshot& before,
                                  const std::string& name);

/// Reports the registry-derived per-layer metrics of a measured window
/// (scheduling, code, processing, microc, message, security probes).
/// `programs` normalizes per-program counts; `wall_s` is the window's wall
/// time for security.share.
void report_registry_layers(Report& r,
                            const sdvm::metrics::MetricsSnapshot& before,
                            const sdvm::metrics::MetricsSnapshot& after,
                            std::uint64_t programs, double wall_s,
                            bool encrypted);

/// Reports the membership layers (runtime.cluster, attraction-memory
/// directory): counts from cluster creation to `settled`, per sign-on.
void report_membership_layers(Report& r,
                              const sdvm::metrics::MetricsSnapshot& settled,
                              std::size_t joins);

/// TCP transport counters of a measured window (net.tcp layer).
struct NetCounters {
  double frames_sent = 0;
  double batches = 0;
  double deadline_hits = 0;
};
void report_net_layer(Report& r, const NetCounters& window,
                      std::uint64_t programs);

/// Simulator layer of a run: events of the probe program, events per
/// sign-on and the pending-queue peak sampled between sign-ons. Wall
/// workloads report zeros.
void report_sim_layer(Report& r, double probe_events, double events_per_join,
                      double pending_peak);

/// Median nanoseconds of one SecurityManager::protect / unprotect call on
/// an encrypted pair of managers, and of SdMessage::serialize_body /
/// deserialize_body, at a body of `body_bytes`.
struct LayerProbe {
  double protect_ns = 0;
  double unprotect_ns = 0;
  double serialize_ns = 0;
  double deserialize_ns = 0;
};
[[nodiscard]] LayerProbe probe_message_layers(std::size_t body_bytes);

/// Pins the calling thread to CPU `k` modulo the CPUs it may use. The
/// single-threaded simulator workloads call this before every program so
/// that each run spends equal time on every core: on a shared host the
/// cores' speeds drift apart, and a run stuck on one core would report
/// that core's speed rather than the machine's.
void rotate_cpu(std::size_t k);
/// Number of CPUs rotate_cpu cycles through (one full round).
[[nodiscard]] std::size_t rotation_period();

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Units shared by every workload's report.
inline constexpr const char* kUnitS = "s";
inline constexpr const char* kUnitNs = "ns";
inline constexpr const char* kUnitCount = "count";
inline constexpr const char* kUnitRatio = "ratio";

/// End-to-end metrics common to every workload (setup, makespan and its
/// tail, speedup, throughput, memory). makespan_s is the median of
/// `makespan`; the tail is taken over the per-program `timed.wall_s`.
void report_end_to_end(Report& r, const Samples& setup_s, const Phase& timed,
                       const Samples& makespan, double speedup,
                       double events_per_s);

}  // namespace perfbench
