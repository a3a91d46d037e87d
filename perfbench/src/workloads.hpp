// The four benchmark workloads. Each builds its cluster, times set-up,
// runs its programs closed-loop with one client (the next program starts
// only after the previous one returned its exit code) and checks every
// answer. The untraced run fills the end-to-end metrics; the traced run
// (Options::trace) fills the per-layer metrics.
#pragma once

#include "career.hpp"
#include "common.hpp"

namespace perfbench {

Report run_tcp_primes(const Options& o);
Report run_threads_finegrain(const Options& o);
Report run_sim_table1_enc(const Options& o);
Report run_sim_membership(const Options& o);

/// A timed window runs at least this many measured programs, so that
/// makespan_tail_s is always at least the p75 (ten samples beyond it).
inline constexpr std::size_t kMinTimedPrograms = 48;

/// Closed loop: calls `one(phase)` (start one program, wait for it, record
/// it) until `seconds` of wall time have passed and at least
/// kMinTimedPrograms programs ran.
template <typename One>
Phase closed_loop(double seconds, One&& one) {
  Phase ph;
  const auto t0 = std::chrono::steady_clock::now();
  while (seconds_since(t0) < seconds || ph.attempted < kMinTimedPrograms) {
    one(ph);
  }
  ph.elapsed_s = seconds_since(t0);
  return ph;
}

/// Timed window of the wall-clock workloads: `per_reference` programs on
/// the measured cluster, then one on its like-for-like reference, repeated
/// for `seconds` and until `measured` holds `min_measured` programs.
/// Interleaving keeps the slow drift of a shared host out of the speedup
/// ratio.
template <typename Measured, typename Reference>
void paired_window(double seconds, std::size_t min_measured,
                   int per_reference, Phase& measured, Phase& reference,
                   Measured&& run_measured, Reference&& run_reference) {
  const auto t0 = std::chrono::steady_clock::now();
  while (seconds_since(t0) < seconds || measured.attempted < min_measured) {
    for (int i = 0; i < per_reference; ++i) run_measured(measured);
    run_reference(reference);
  }
  measured.elapsed_s = reference.elapsed_s = seconds_since(t0);
}

/// Starts `spec` on `cluster`, waits up to `limit`, verifies the answer
/// via `outputs(pid)` and records the program in `ph`.
template <typename OutputsFn>
void run_program(sdvm::Cluster& cluster, const sdvm::ProgramSpec& spec,
                 const std::string& expected, Nanos limit, const char* name,
                 Phase& ph, OutputsFn&& outputs) {
  ++ph.attempted;
  const auto t0 = std::chrono::steady_clock::now();
  auto pid = cluster.start_program(spec);
  ph.start_call_s.add(seconds_since(t0));
  if (!pid.is_ok()) {
    ++ph.failed;
    return;
  }
  auto code = cluster.run(pid.value(), limit);
  ph.wall_s.add(seconds_since(t0));
  if (!verify(name, code, outputs(pid.value()), expected)) ++ph.failed;
}

/// The traced run's window: untraced and traced programs alternate (hooks
/// installed only around the traced ones), so both halves see the same
/// cluster state and trace.overhead_share compares like with like.
/// `one(phase)` runs one program.
template <typename One>
void traced_window(double seconds, CareerRecorder& careers, Phase& plain,
                   Phase& traced, One&& one) {
  const auto t0 = std::chrono::steady_clock::now();
  while (seconds_since(t0) < seconds || traced.attempted < 3) {
    one(plain);
    careers.set_enabled(true);
    one(traced);
    careers.set_enabled(false);
    careers.drain();
  }
  plain.elapsed_s = traced.elapsed_s = seconds_since(t0);
}

/// trace.overhead_share: traced over untraced median makespan, minus one.
inline void report_trace_overhead(Report& r, const Phase& untraced,
                                  const Phase& traced) {
  const double base = untraced.wall_s.median();
  r.set("trace.overhead_share",
        base > 0 ? traced.wall_s.median() / base - 1.0 : 0, kUnitRatio);
}

}  // namespace perfbench
