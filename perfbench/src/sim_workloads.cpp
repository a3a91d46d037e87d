// Simulated workloads: the Table 1 primes run on 8 encrypted sites
// (sim_table1_enc) and a large membership signing on one by one, idling
// and running a small fib program (sim_membership). Both are
// single-threaded discrete-event runs; the workload seed drives the link
// jitter through SimCluster::Options, so the same seed repeats every
// virtual time, event count and executed-frame count exactly.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "apps/fibonacci.hpp"
#include "apps/primes.hpp"
#include "career.hpp"
#include "sim/sim_cluster.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using sdvm::kNanosPerSecond;
using sdvm::sim::SimCluster;

constexpr Nanos kVirtualLimit = 100'000 * kNanosPerSecond;
// Per-candidate virtual cost that lands the 1-site column of Table 1 on
// the paper's Pentium IV numbers (the value the repository's table1_primes
// bench calibrates with).
constexpr std::int64_t kPaperWorkMult = 58'000'000;
// Uniform extra link delay: intranet-class jitter that the seed draws.
constexpr Nanos kLinkJitter = 20'000;

/// What one program did in virtual time; must repeat exactly per seed.
struct Fingerprint {
  Nanos virtual_ns = 0;
  std::uint64_t executed = 0;
  std::uint64_t events = 0;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

SimCluster::Options sim_options(std::uint64_t seed) {
  SimCluster::Options opts;
  opts.seed = seed;
  opts.link.jitter = kLinkJitter;
  return opts;
}

/// A simulated cluster after set-up, with what set-up measured.
struct Built {
  std::unique_ptr<SimCluster> cluster;
  Samples join_s;               // wall time of each add_site
  double pending_peak = 0;      // EventLoop::pending() between sign-ons
  std::uint64_t build_events = 0;
};

/// Runs `spec` once on the next CPU (see rotate_cpu) and returns its
/// fingerprint; counts the program in `ph` (wall makespan, verified
/// answer). The executed-frame count needs two registry walks, so only
/// probes ask for it.
Fingerprint run_measured(SimCluster& c, const sdvm::ProgramSpec& spec,
                         const std::string& expected, const char* name,
                         Phase& ph, bool count_executed = false) {
  static std::size_t programs = 0;
  rotate_cpu(programs++);
  sdvm::metrics::MetricsSnapshot before;
  if (count_executed) before = registry(c);
  const Nanos v0 = c.now();
  const std::uint64_t e0 = c.loop().executed();
  run_program(c, spec, expected, kVirtualLimit, name, ph,
              [&](sdvm::ProgramId pid) { return c.outputs(0, pid); });
  Fingerprint f;
  f.virtual_ns = c.now() - v0;
  f.events = c.loop().executed() - e0;
  if (count_executed) f.executed = delta(registry(c), before, "proc.executed");
  return f;
}

/// Builds `sites` sites one sign-on at a time and runs the warm-up.
Built build(std::uint64_t seed, int sites, const sdvm::SiteConfig& cfg,
            const sdvm::ProgramSpec& warmup, const std::string& warmup_expected,
            const char* name, Report& r, Samples& setup_s) {
  const auto t0 = std::chrono::steady_clock::now();
  Built b;
  b.cluster = std::make_unique<SimCluster>(sim_options(seed));
  SimCluster& c = *b.cluster;
  for (int i = 0; i < sites; ++i) {
    rotate_cpu(static_cast<std::size_t>(i));
    const auto tj = std::chrono::steady_clock::now();
    c.add_site(cfg);
    b.join_s.add(seconds_since(tj));
    b.pending_peak =
        std::max(b.pending_peak, static_cast<double>(c.loop().pending()));
  }
  b.build_events = c.loop().executed();
  Phase warm;
  (void)run_measured(c, warmup, warmup_expected, name, warm);
  if (warm.failed != 0) {
    r.problem(std::string(name) + " warm-up failed");
    b.cluster.reset();
    return b;
  }
  setup_s.add(seconds_since(t0));
  return b;
}

/// Shared shape of both sim workloads. `settle_virtual` idles the cluster
/// once after set-up, so the membership counts cover heartbeats and lease
/// renewals. `idle_slice` > 0 idles before every timed program and makes
/// the event rate of those slices (membership background only) the
/// events_per_s; otherwise events_per_s is measured over the program loop.
struct SimWorkload {
  const char* name;
  int sites;
  sdvm::SiteConfig cfg;
  sdvm::ProgramSpec program;
  std::string expected;
  sdvm::ProgramSpec warmup;
  std::string warmup_expected;
  Nanos settle_virtual = 0;
  Nanos idle_slice = 0;
  std::size_t career_capacity = 0;
  int setup_reps = 3;
};

Report run_sim(const SimWorkload& w, const Options& o) {
  Report r;
  Samples setup_s;
  Samples join_s;
  CareerRecorder careers(w.career_capacity);  // outlives the cluster
  Built b;
  std::vector<Fingerprint> probes;
  Phase probe_phase;
  for (int i = 0; i < w.setup_reps; ++i) {
    b = Built{};
    b = build(o.seed, w.sites, w.cfg, w.warmup, w.warmup_expected, w.name, r,
              setup_s);
    if (b.cluster == nullptr) return r;
    join_s.append(b.join_s);
    // The first program after set-up is the determinism probe: every
    // repetition starts from the same seed, so it must match exactly.
    probes.push_back(run_measured(*b.cluster, w.program, w.expected, w.name,
                                  probe_phase, /*count_executed=*/true));
  }
  for (const Fingerprint& f : probes) {
    if (!(f == probes.front())) {
      r.deterministic = false;
      r.problem(std::string(w.name) +
                ": probe program diverged between set-ups with one seed");
    }
  }
  const Fingerprint probe = probes.front();
  r.note("sim_virtual_s", json_num(static_cast<double>(probe.virtual_ns) * 1e-9));
  r.note("probe_events", std::to_string(probe.events));
  r.note("probe_executed", std::to_string(probe.executed));
  SimCluster& c = *b.cluster;

  if (w.settle_virtual > 0) c.loop().run_for(w.settle_virtual);
  // Everything up to here is a pure function of the seed.
  const auto settled = registry(c);
  // Idle slices between programs spread the background-rate measurement
  // over the whole window instead of one stretch of it.
  std::uint64_t idle_events = 0;
  double idle_wall = 0;
  auto one = [&](Phase& ph) {
    if (w.idle_slice > 0) {
      const std::uint64_t e0 = c.loop().executed();
      const auto t0 = std::chrono::steady_clock::now();
      c.loop().run_for(w.idle_slice);
      idle_wall += seconds_since(t0);
      idle_events += c.loop().executed() - e0;
    }
    (void)run_measured(c, w.program, w.expected, w.name, ph);
  };

  if (!o.trace) {
    const std::uint64_t e0 = c.loop().executed();
    Phase timed = closed_loop(o.seconds, one);
    const double events_per_s =
        w.idle_slice > 0
            ? static_cast<double>(idle_events) / idle_wall
            : static_cast<double>(c.loop().executed() - e0) / timed.elapsed_s;
    r.note("idle_events", std::to_string(idle_events));
    r.note("idle_wall_s", json_num(idle_wall));
    b = Built{};

    // Reference: the same program on one site, same seed, virtual time.
    Samples unused;
    Built single_b = build(o.seed, 1, w.cfg, w.warmup, w.warmup_expected,
                           w.name, r, unused);
    if (single_b.cluster == nullptr) return r;
    Phase ref;
    const Fingerprint single =
        run_measured(*single_b.cluster, w.program, w.expected, w.name, ref);
    r.note("reference_virtual_s",
           json_num(static_cast<double>(single.virtual_ns) * 1e-9));

    r.attempted = probe_phase.attempted + timed.attempted + ref.attempted;
    r.failed = probe_phase.failed + timed.failed + ref.failed;
    const double speedup =
        probe.virtual_ns > 0 ? static_cast<double>(single.virtual_ns) /
                                   static_cast<double>(probe.virtual_ns)
                             : 0;
    // Per-program times cluster by the core a program ran on, so the
    // makespan is the median over rounds (one program per core) of the
    // round mean; the tail stays per program.
    report_end_to_end(r, setup_s, timed,
                      timed.wall_s.group_means(rotation_period()), speedup,
                      events_per_s);
    return r;
  }

  for (std::size_t i = 0; i < c.size(); ++i) careers.attach(c, i, c.site(i));
  Phase plain, traced;
  traced_window(o.seconds, careers, plain, traced, one);
  const auto after = registry(c);
  const std::uint64_t programs = plain.attempted + traced.attempted;
  r.attempted = probe_phase.attempted + programs;
  r.failed = probe_phase.failed + plain.failed + traced.failed;

  r.set("api.join_s", join_s, kUnitS);
  r.set("api.start_program_s", traced.start_call_s, kUnitS);
  careers.report(r, traced.attempted, /*virtual_clock=*/true);
  report_registry_layers(r, settled, after, programs, traced.elapsed_s,
                         w.cfg.encrypt);
  report_net_layer(r, NetCounters{}, programs);
  report_sim_layer(r, static_cast<double>(probe.events),
                   static_cast<double>(b.build_events) / w.sites,
                   b.pending_peak);
  report_membership_layers(r, settled, static_cast<std::size_t>(w.sites));
  report_trace_overhead(r, plain, traced);
  return r;
}

}  // namespace

Report run_sim_table1_enc(const Options& o) {
  SimWorkload w;
  w.name = "sim_table1_enc";
  w.sites = 8;
  w.cfg.encrypt = true;
  sdvm::apps::PrimesParams p;
  p.p = 100;
  p.width = 20;
  p.work_mult = kPaperWorkMult;
  w.program = sdvm::apps::make_primes_program(p);
  w.expected = primes_expected(p.p, p.width);
  sdvm::apps::PrimesParams warm = p;
  warm.p = 3;
  w.warmup = sdvm::apps::make_primes_program(warm);
  w.warmup_expected = primes_expected(warm.p, warm.width);
  w.career_capacity = 1 << 16;
  w.setup_reps = 21;  // ~15 ms each
  Report r = run_sim(w, o);
  r.note("program", "{\"app\":\"primes\",\"p\":100,\"width\":20,"
                    "\"work_mult\":58000000}");
  r.note("sites", "8");
  r.note("encrypt", "true");
  return r;
}

Report run_sim_membership(const Options& o) {
  SimWorkload w;
  w.name = "sim_membership";
  w.sites = 192;
  // The large-membership profile of bench_simscale and the chaos harness.
  w.cfg.heartbeat_fanout = 4;
  w.cfg.gossip_delta = true;
  w.cfg.heartbeat_interval = 200'000'000;
  w.cfg.failure_timeout = kNanosPerSecond;
  w.cfg.help_retry_interval = 250'000'000;
  sdvm::apps::FibParams f;
  f.n = 12;
  w.program = sdvm::apps::make_fib_program(f);
  w.expected = std::to_string(sdvm::apps::fib_reference(f.n));
  sdvm::apps::FibParams warm = f;
  warm.n = 3;
  w.warmup = sdvm::apps::make_fib_program(warm);
  w.warmup_expected = std::to_string(sdvm::apps::fib_reference(warm.n));
  w.settle_virtual = 4 * kNanosPerSecond;
  w.idle_slice = 250'000'000;
  w.career_capacity = 4096;
  Report r = run_sim(w, o);
  r.note("program", "{\"app\":\"fib\",\"n\":12}");
  r.note("sites", "192");
  r.note("settle_virtual_s", "4");
  r.note("idle_slice_virtual_s", "0.25");
  return r;
}

}  // namespace perfbench
