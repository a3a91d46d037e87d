// Wall-clock workloads: two in-process TcpNode daemons on loopback
// (tcp_primes) and one LocalCluster site with two executor slots
// (threads_finegrain). Both run the paper's primes application with real
// interpreted work per candidate (`spin`).
#include <functional>
#include <memory>
#include <mutex>

#include "api/local_cluster.hpp"
#include "api/tcp_node.hpp"
#include "apps/primes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using sdvm::kNanosPerSecond;
using sdvm::LocalCluster;
using sdvm::TcpNode;
using sdvm::apps::PrimesParams;
using OutputsFn = std::function<std::vector<std::string>(sdvm::ProgramId)>;

// Set-up takes milliseconds here, so many repetitions steady its median.
constexpr int kSetupReps = 11;
constexpr Nanos kProgramLimit = 60 * kNanosPerSecond;

PrimesParams primes(std::int64_t p, std::int64_t width, std::int64_t spin) {
  PrimesParams params;
  params.p = p;
  params.width = width;
  params.work_mult = 0;
  params.spin = spin;
  return params;
}

std::string program_note(const PrimesParams& p) {
  return "{\"app\":\"primes\",\"p\":" + std::to_string(p.p) +
         ",\"width\":" + std::to_string(p.width) +
         ",\"spin\":" + std::to_string(p.spin) + "}";
}

bool warm_up(sdvm::Cluster& c, const PrimesParams& params,
             const OutputsFn& outputs, const char* name) {
  Phase ph;
  run_program(c, sdvm::apps::make_primes_program(params),
              primes_expected(params.p, params.width), kProgramLimit, name, ph,
              outputs);
  return ph.failed == 0;
}

/// A program runner for closed_loop / traced_window.
auto runner(sdvm::Cluster& c, const sdvm::ProgramSpec& spec,
            const std::string& expected, const char* name,
            const OutputsFn& outputs) {
  return [&c, &spec, &expected, name, &outputs](Phase& ph) {
    run_program(c, spec, expected, kProgramLimit, name, ph, outputs);
  };
}

double speedup_of(const Phase& reference, const Phase& measured) {
  const double m = measured.wall_s.median();
  return m > 0 ? reference.wall_s.median() / m : 0;
}

// ---------------------------------------------------------------- tcp_primes

// ≈0.6 ms of interpreted work per candidate; 28 rounds of 10 candidates.
const PrimesParams kTcpProgram = primes(/*p=*/60, /*width=*/10, /*spin=*/50'000);
// Same microthreads, a handful of candidates: compiles and caches the code.
const PrimesParams kTcpWarmup = primes(/*p=*/3, /*width=*/10, /*spin=*/50'000);

/// A running set of daemons on loopback, each with one executor slot.
struct Daemons {
  std::vector<std::unique_ptr<TcpNode>> nodes;
  Samples join_s;  // wall time of each join_cluster call
  OutputsFn outputs;  // output lines at the first daemon (the frontend)

  Daemons() = default;
  Daemons(const Daemons&) = delete;
  Daemons& operator=(const Daemons&) = delete;
  ~Daemons() {
    for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) (*it)->shutdown();
  }
};

std::unique_ptr<Daemons> start_daemons(int count, Report& r) {
  auto d = std::make_unique<Daemons>();
  TcpNode::Options opts;
  opts.site.executor_slots = 1;
  for (int i = 0; i < count; ++i) {
    opts.site.name = "daemon" + std::to_string(i);
    auto node = TcpNode::create(opts);
    if (!node.is_ok()) {
      r.problem("TcpNode::create: " + node.status().to_string());
      return nullptr;
    }
    if (i == 0) {
      node.value()->bootstrap();
    } else {
      const auto t0 = std::chrono::steady_clock::now();
      sdvm::Status st = node.value()->join_cluster(d->nodes[0]->address(),
                                                   10 * kNanosPerSecond);
      d->join_s.add(seconds_since(t0));
      if (!st.is_ok()) {
        r.problem("join_cluster: " + st.to_string());
        return nullptr;
      }
    }
    d->nodes.push_back(std::move(node).value());
  }
  TcpNode* home = d->nodes[0].get();
  d->outputs = [home](sdvm::ProgramId pid) {
    std::lock_guard lk(home->site().lock());
    return home->site().io().outputs(pid);
  };
  return d;
}

/// One set-up: start the daemons, sign the others on, run the warm-up.
/// Returns nullptr (with a problem noted) on failure.
std::unique_ptr<Daemons> setup_daemons(int count, Report& r, Samples& setup_s,
                                       Samples& join_s) {
  const auto t0 = std::chrono::steady_clock::now();
  auto d = start_daemons(count, r);
  if (d == nullptr) return nullptr;
  if (!warm_up(*d->nodes[0], kTcpWarmup, d->outputs, "tcp_primes warm-up")) {
    r.problem("tcp_primes warm-up failed");
    return nullptr;
  }
  setup_s.add(seconds_since(t0));
  join_s.append(d->join_s);
  return d;
}

sdvm::metrics::MetricsSnapshot daemons_registry(Daemons& d) {
  sdvm::metrics::MetricsSnapshot total;
  for (auto& n : d.nodes) total.merge(registry(*n));
  return total;
}

NetCounters daemons_net(Daemons& d) {
  NetCounters c;
  for (auto& n : d.nodes) {
    const auto s = n->tcp_transport().stats();
    c.frames_sent += static_cast<double>(s.frames_sent);
    c.batches += static_cast<double>(s.batches_sent);
    c.deadline_hits += static_cast<double>(s.flush_deadline_hits);
  }
  return c;
}

}  // namespace

Report run_tcp_primes(const Options& o) {
  Report r;
  r.note("program", program_note(kTcpProgram));
  r.note("daemons", "2");
  r.note("executor_slots_per_daemon", "1");
  const sdvm::ProgramSpec spec = sdvm::apps::make_primes_program(kTcpProgram);
  const std::string expected = primes_expected(kTcpProgram.p, kTcpProgram.width);

  // Set-up is repeated with fresh daemons, so every repetition pays the
  // same sign-on and code-cache fill; the last pair serves the timed window.
  Samples setup_s;
  Samples join_s;
  CareerRecorder careers(1 << 18);  // outlives the daemons it hooks
  std::unique_ptr<Daemons> d;
  for (int i = 0; i < kSetupReps; ++i) {
    d.reset();
    d = setup_daemons(2, r, setup_s, join_s);
    if (d == nullptr) return r;
  }
  const auto settled = daemons_registry(*d);
  const auto before = settled;
  const NetCounters net_before = daemons_net(*d);
  auto one = runner(*d->nodes[0], spec, expected, "tcp_primes", d->outputs);

  if (!o.trace) {
    // Like-for-like reference: one daemon with the same single executor
    // slot, so the ratio measures distribution, not extra threads.
    Samples unused_setup, unused_join;
    auto single_d = setup_daemons(1, r, unused_setup, unused_join);
    if (single_d == nullptr) return r;
    Phase two, single;
    paired_window(1.5 * o.seconds, kMinTimedPrograms, 2, two, single, one,
                  runner(*single_d->nodes[0], spec, expected, "tcp_primes",
                         single_d->outputs));
    const double executed = static_cast<double>(
        delta(daemons_registry(*d), before, "proc.executed"));
    r.attempted = two.attempted + single.attempted;
    r.failed = two.failed + single.failed;
    r.note("reference_makespan_s", json_num(single.wall_s.median()));
    r.note("reference_programs", std::to_string(single.wall_s.size()));
    // Throughput: microframes executed per wall second of the two-daemon
    // programs.
    report_end_to_end(r, setup_s, two, two.wall_s, speedup_of(single, two),
                      executed / two.wall_s.sum());
    return r;
  }

  for (auto& n : d->nodes) careers.attach(*n, 0, n->site());
  Phase plain, traced;
  traced_window(o.seconds, careers, plain, traced, one);
  const auto after = daemons_registry(*d);
  const NetCounters net_after = daemons_net(*d);
  const std::uint64_t programs = plain.attempted + traced.attempted;
  r.attempted = programs;
  r.failed = plain.failed + traced.failed;

  r.set("api.join_s", join_s, kUnitS);
  r.set("api.start_program_s", traced.start_call_s, kUnitS);
  careers.report(r, traced.attempted, /*virtual_clock=*/false);
  report_registry_layers(r, before, after, programs, traced.elapsed_s,
                         /*encrypted=*/false);
  report_net_layer(r,
                   NetCounters{net_after.frames_sent - net_before.frames_sent,
                               net_after.batches - net_before.batches,
                               net_after.deadline_hits - net_before.deadline_hits},
                   programs);
  report_sim_layer(r, 0, 0, 0);
  report_membership_layers(r, settled, d->nodes.size());
  report_trace_overhead(r, plain, traced);
  return r;
}

// --------------------------------------------------------- threads_finegrain

namespace {

// Tiny frames (spin=200) so workers contend on the site lock, the
// ExecContext and the ready queue rather than on interpretation.
const PrimesParams kFineProgram = primes(/*p=*/2000, /*width=*/64, /*spin=*/200);
const PrimesParams kFineWarmup = primes(/*p=*/3, /*width=*/64, /*spin=*/200);
// Length of one timed segment on one pair of freshly placed clusters.
constexpr double kSegmentSeconds = 2.0;
// Engine thread + two workers leave one of four cores free: with three
// workers every core is busy and one slow core on a shared host stalls
// the lock convoy, which made run-to-run spread several times larger.
constexpr int kFineSlots = 2;

struct Local {
  std::unique_ptr<LocalCluster> cluster;
  OutputsFn outputs;
};

Local setup_local(std::uint64_t seed, int slots, Report& r, Samples& setup_s,
                  Samples& join_s) {
  const auto t0 = std::chrono::steady_clock::now();
  LocalCluster::Options opts;
  opts.seed = seed;
  Local l;
  l.cluster = std::make_unique<LocalCluster>(opts);
  LocalCluster* c = l.cluster.get();
  l.outputs = [c](sdvm::ProgramId pid) { return c->outputs(0, pid); };
  sdvm::SiteConfig cfg;
  cfg.executor_slots = slots;
  const auto tj = std::chrono::steady_clock::now();
  c->add_site(cfg);
  join_s.add(seconds_since(tj));
  if (!warm_up(*c, kFineWarmup, l.outputs, "threads_finegrain warm-up")) {
    r.problem("threads_finegrain warm-up failed");
    l.cluster.reset();
    return l;
  }
  setup_s.add(seconds_since(t0));
  return l;
}

}  // namespace

Report run_threads_finegrain(const Options& o) {
  Report r;
  r.note("program", program_note(kFineProgram));
  r.note("sites", "1");
  r.note("executor_slots", std::to_string(kFineSlots));
  const sdvm::ProgramSpec spec = sdvm::apps::make_primes_program(kFineProgram);
  const std::string expected =
      primes_expected(kFineProgram.p, kFineProgram.width);

  Samples setup_s;
  Samples join_s;
  CareerRecorder careers(1 << 19);  // outlives the cluster it hooks
  Local l;
  for (int i = 0; i < kSetupReps; ++i) {
    l = Local{};
    l = setup_local(o.seed, kFineSlots, r, setup_s, join_s);
    if (l.cluster == nullptr) return r;
  }
  LocalCluster& c = *l.cluster;
  const auto before = registry(c);
  auto one = runner(c, spec, expected, "threads_finegrain", l.outputs);

  if (!o.trace) {
    // Reference: the same site with one executor slot. Contended fine-grain
    // runs depend on where the OS placed the worker threads, so the window
    // is cut into segments, each on a freshly set-up pair of clusters; a
    // run then averages over several placements. Segment set-ups count as
    // set-up samples too.
    Phase many, single;
    double executed = 0;
    const auto t0 = std::chrono::steady_clock::now();
    while (seconds_since(t0) < 1.5 * o.seconds ||
           many.attempted < kMinTimedPrograms) {
      Samples unused_setup, unused_join;
      Local single_l =
          setup_local(o.seed, /*slots=*/1, r, unused_setup, unused_join);
      if (l.cluster == nullptr) {
        l = setup_local(o.seed, kFineSlots, r, setup_s, join_s);
      }
      if (l.cluster == nullptr || single_l.cluster == nullptr) return r;
      const auto segment_before = registry(*l.cluster);
      paired_window(kSegmentSeconds, /*min_measured=*/0, 1, many, single,
                    runner(*l.cluster, spec, expected, "threads_finegrain",
                           l.outputs),
                    runner(*single_l.cluster, spec, expected,
                           "threads_finegrain", single_l.outputs));
      executed += static_cast<double>(
          delta(registry(*l.cluster), segment_before, "proc.executed"));
      l = Local{};
    }
    many.elapsed_s = single.elapsed_s = seconds_since(t0);
    r.attempted = many.attempted + single.attempted;
    r.failed = many.failed + single.failed;
    r.note("reference_makespan_s", json_num(single.wall_s.median()));
    r.note("reference_programs", std::to_string(single.wall_s.size()));
    report_end_to_end(r, setup_s, many, many.wall_s, speedup_of(single, many),
                      executed / many.wall_s.sum());
    return r;
  }

  careers.attach(c, 0, c.site(0));
  Phase plain, traced;
  traced_window(o.seconds, careers, plain, traced, one);
  const auto after = registry(c);
  const std::uint64_t programs = plain.attempted + traced.attempted;
  r.attempted = programs;
  r.failed = plain.failed + traced.failed;

  r.set("api.join_s", join_s, kUnitS);
  r.set("api.start_program_s", traced.start_call_s, kUnitS);
  careers.report(r, traced.attempted, /*virtual_clock=*/false);
  report_registry_layers(r, before, after, programs, traced.elapsed_s,
                         /*encrypted=*/false);
  report_net_layer(r, NetCounters{}, programs);
  report_sim_layer(r, 0, 0, 0);
  report_membership_layers(r, before, 1);
  report_trace_overhead(r, plain, traced);
  return r;
}

}  // namespace perfbench
