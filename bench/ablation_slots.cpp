// Experiment P5 (paper §4, processing manager): "When a microthread has to
// wait for data due to an access to the memory, the processing manager can
// hide the latency by switching to another microthread run in parallel ...
// Tests showed that a number of about 5 microthreads run in (virtual)
// parallel produce good results."
//
// Simulated cluster, two sites, 1 ms link latency. Every task performs a
// rerouted file read from site 2 (a real request/reply round trip for
// tasks on site 1) followed by 30 us of compute; more executor slots let
// the site's fibers overlap the stalls. Virtual makespan vs slot count:
// deterministic, so one run per row. SimIoTest.ExecutorSlotsHideRemote-
// FileLatency asserts the shape of this table.
#include <cstdio>

#include "api/program_builder.hpp"
#include "runtime/context.hpp"
#include "sim/sim_cluster.hpp"

using namespace sdvm;

namespace {

constexpr int kTasks = 48;

ProgramSpec make_io_workload() {
  return ProgramBuilder("io-stall")
      .native_thread("entry",
                     [](Context& ctx) {
                       GlobalAddress done = ctx.spawn("done", kTasks);
                       for (int i = 0; i < kTasks; ++i) {
                         GlobalAddress t = ctx.spawn("task", 2);
                         ctx.send_int(
                             t, 0, static_cast<std::int64_t>(done.value));
                         ctx.send_int(t, 1, i);
                       }
                     })
      .native_thread("task",
                     [](Context& ctx) {
                       // Remote read: ~2 ms round trip for tasks on site 1.
                       std::string blob = ctx.file_read("@2/shared.dat");
                       ctx.charge(30'000);  // 30 us of compute
                       ctx.send_int(GlobalAddress{static_cast<std::uint64_t>(
                                        ctx.param_int(0))},
                                    static_cast<int>(ctx.param_int(1)),
                                    static_cast<std::int64_t>(blob.size()));
                     })
      .native_thread("done", [](Context& ctx) { ctx.exit_program(0); })
      .entry("entry")
      .build();
}

}  // namespace

int main() {
  std::printf("P5: executor slots (latency hiding), %d file-read tasks over "
              "2 simulated sites, 1 ms links\n", kTasks);
  std::printf("%6s | %14s | %s\n", "slots", "virtual time", "speed vs 1 slot");
  std::printf("--------------------------------------------\n");

  double base = 0;
  for (int slots : {1, 2, 3, 5, 8, 12}) {
    sim::SimCluster::Options options;
    options.link.latency = 1'000'000;  // 1 ms each way
    sim::SimCluster cluster(options);
    SiteConfig cfg;
    cfg.executor_slots = slots;
    cfg.help_retry_interval = 500'000;
    cluster.add_sites(2, 1.0, cfg);
    cluster.site(1).io().vfs_put("shared.dat", std::string(512, 'x'));

    const Nanos t0 = cluster.now();
    auto pid = cluster.start_program(make_io_workload());
    if (!pid.is_ok()) {
      std::fprintf(stderr, "start failed\n");
      return 1;
    }
    auto code = cluster.run_program(pid.value(), 60 * kNanosPerSecond);
    if (!code.is_ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   code.status().to_string().c_str());
      return 1;
    }
    double ms = static_cast<double>(cluster.now() - t0) / 1e6;
    if (slots == 1) base = ms;
    std::printf("%6d | %11.3f ms | %.2fx\n", slots, ms, base / ms);
  }
  std::printf("\npaper: ~5 slots is the sweet spot — enough to hide memory "
              "latency,\nnot so many that switching clogs the site.\n");
  return 0;
}
