// Quickstart: the smallest complete SDVM application.
//
// Builds a two-site cluster inside this process (each site is a full SDVM
// daemon whose engine thread runs its microthreads as fibers), submits a
// three-microthread dataflow program written in MicroC, and prints its
// output.
//
//   $ ./quickstart
//
// The program: an entry microthread fans out four "square" tasks; a
// collector fires when all four results have arrived (the dataflow firing
// rule), prints their sum, and terminates the program cluster-wide.
#include <cstdio>

#include "api/local_cluster.hpp"
#include "api/program_builder.hpp"

int main() {
  using namespace sdvm;

  // 1. A cluster: first site bootstraps, the second joins it — exactly the
  //    sign-on any remote machine would perform, just in-process.
  LocalCluster cluster;
  cluster.add_sites(2);
  std::printf("cluster up: %zu sites\n", cluster.size());

  // 2. The application, partitioned into microthreads (paper §2.1: "the
  //    programmer only has to split his application into tasks").
  auto spec =
      ProgramBuilder("quickstart")
          .thread("entry", R"(
            // Allocate the collector first: its global address is needed
            // by the workers ("every microframe should be allocated as
            // soon as possible", §3.2).
            var c = spawn("collect", 4);
            var i = 1;
            while (i <= 4) {
              var w = spawn("square", 3);
              send(w, 0, i);        // the number to square
              send(w, 1, c);        // where the result goes
              send(w, 2, i - 1);    // which parameter slot
              i = i + 1;
            }
          )")
          .thread("square", R"(
            send(param(1), param(2), param(0) * param(0));
          )")
          .thread("collect", R"(
            outs("1 + 4 + 9 + 16 =");
            out(param(0) + param(1) + param(2) + param(3));
            exit(0);
          )")
          .entry("entry")
          .build();

  // 3. Run it and wait. Microthreads are distributed across the cluster
  //    automatically; output is routed to this (frontend) site.
  auto pid = cluster.start_program(spec);
  if (!pid.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n",
                 pid.status().to_string().c_str());
    return 1;
  }
  auto exit_code = cluster.wait_program(pid.value(), 30 * kNanosPerSecond);
  if (!exit_code.is_ok()) {
    std::fprintf(stderr, "wait failed: %s\n",
                 exit_code.status().to_string().c_str());
    return 1;
  }

  for (const auto& line : cluster.outputs(0, pid.value())) {
    std::printf("program says: %s\n", line.c_str());
  }
  std::printf("exit code: %lld\n",
              static_cast<long long>(exit_code.value()));
  return 0;
}
