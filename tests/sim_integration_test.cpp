// End-to-end tests of the full SDVM daemon stack under the discrete-event
// simulator: dataflow execution, distribution via help requests, COMA
// memory migration, heterogeneous compile-on-the-fly, dynamic entry/exit,
// multi-program operation, and I/O routing.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include "api/program_builder.hpp"
#include "runtime/context.hpp"
#include "apps/fibonacci.hpp"
#include "apps/matmul.hpp"
#include "apps/primes.hpp"
#include "sim/sim_cluster.hpp"

namespace sdvm {
namespace {

using sim::SimCluster;

ProgramSpec hello_program() {
  return ProgramBuilder("hello")
      .thread("entry", R"( out(42); exit(0); )")
      .entry("entry")
      .build();
}

TEST(SimBasicTest, SingleSiteHelloWorld) {
  SimCluster cluster;
  cluster.add_sites(1);
  auto pid = cluster.start_program(hello_program());
  ASSERT_TRUE(pid.is_ok()) << pid.status().to_string();
  auto code = cluster.run_program(pid.value(), 5 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_EQ(code.value(), 0);
  EXPECT_EQ(cluster.outputs(0, pid.value()),
            std::vector<std::string>{"42"});
}

TEST(SimBasicTest, ExitCodePropagates) {
  SimCluster cluster;
  cluster.add_sites(1);
  auto pid = cluster.start_program(
      ProgramBuilder("ec").thread("entry", "exit(17);").entry("entry").build());
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 5 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_EQ(code.value(), 17);
}

TEST(SimBasicTest, DataflowFiringRule) {
  // A 3-parameter collector fires only after all three sends arrive.
  SimCluster cluster;
  cluster.add_sites(1);
  auto spec = ProgramBuilder("firing")
                  .thread("entry", R"(
                    var c = spawn("collect", 3);
                    var i = 0;
                    while (i < 3) {
                      var w = spawn("work", 2);
                      send(w, 0, c);
                      send(w, 1, i);
                      i = i + 1;
                    }
                  )")
                  .thread("work", R"(
                    send(param(0), param(1), (param(1) + 1) * 10);
                  )")
                  .thread("collect", R"(
                    out(param(0) + param(1) + param(2));
                    exit(0);
                  )")
                  .entry("entry")
                  .build();
  auto pid = cluster.start_program(spec);
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 5 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_EQ(cluster.outputs(0, pid.value()),
            std::vector<std::string>{"60"});
}

TEST(SimBasicTest, NativeMicrothread) {
  SimCluster cluster;
  cluster.add_sites(1);
  auto spec = ProgramBuilder("native")
                  .native_thread("entry",
                                 [](Context& ctx) {
                                   ctx.out_str("native says hi");
                                   ctx.charge(1000);
                                   ctx.exit_program(0);
                                 })
                  .entry("entry")
                  .build();
  auto pid = cluster.start_program(spec);
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 5 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_EQ(cluster.outputs(0, pid.value()),
            std::vector<std::string>{"native says hi"});
}

TEST(SimDistributionTest, WorkSpreadsAcrossSites) {
  SimCluster cluster;
  cluster.add_sites(4);
  apps::PrimesParams params;
  params.p = 25;
  params.width = 8;
  params.work_mult = 5'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 600 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();

  // Every site must have executed a share of the microthreads.
  std::uint64_t total = 0;
  int active_sites = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    std::uint64_t n = testing_util::counter(cluster.site(i), "proc.executed");
    total += n;
    if (n > 0) ++active_sites;
  }
  EXPECT_GE(active_sites, 3) << "work did not distribute";
  EXPECT_GT(total, 25u);
  // Correct answer: 25 primes found.
  auto out = cluster.outputs(0, pid.value());
  ASSERT_FALSE(out.empty());
  testing_util::expect_primes_verdict(out, 25, 8);
}

TEST(SimDistributionTest, FasterSitesDoMoreWork) {
  SimCluster cluster;
  SiteConfig base;
  cluster.add_sites(1, /*speed=*/4.0, base);
  cluster.add_sites(1, /*speed=*/1.0, base);
  apps::PrimesParams params;
  params.p = 40;
  params.width = 8;
  params.work_mult = 10'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 600 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  // The 4x site should execute clearly more microthreads (load balancing
  // via demand-driven help requests).
  EXPECT_GT(testing_util::counter(cluster.site(0), "proc.executed"),
            testing_util::counter(cluster.site(1), "proc.executed"));
}

TEST(SimMemoryTest, MatmulOverAttractionMemory) {
  SimCluster cluster;
  cluster.add_sites(3);
  apps::MatmulParams params;
  params.n = 8;
  params.block_rows = 2;
  auto pid = cluster.start_program(apps::make_matmul_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 600 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();

  // Checksum must match the reference product.
  auto ref = apps::matmul_reference(params.n);
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    expected += ref[i] * (static_cast<std::int64_t>(i) % 13 + 1);
  }
  auto out = cluster.outputs(0, pid.value());
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), std::to_string(expected));
}

TEST(SimMemoryTest, ObjectsMigrateBetweenSites) {
  SimCluster cluster;
  SiteConfig cfg;
  // Eager work stealing so blocks spread before the home site finishes
  // them all locally (the blocks are compute-light).
  cfg.help_retry_interval = 50'000;
  cluster.add_sites(3, 1.0, cfg);
  apps::MatmulParams params;
  params.n = 16;
  params.block_rows = 2;
  auto pid = cluster.start_program(apps::make_matmul_program(params));
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(cluster.run_program(pid.value(), 600 * kNanosPerSecond).is_ok());
  std::uint64_t migrations = 0;
  std::uint64_t requests = 0;
  std::uint64_t grants = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    migrations += testing_util::counter(cluster.site(i), "mem.migrations_in");
    requests +=
        testing_util::counter(cluster.site(i), "msg.sent.object-request");
    grants += testing_util::counter(cluster.site(i), "msg.sent.object-grant");
  }
  EXPECT_GT(migrations, 0u) << "COMA migration never happened";
  // The objects travelled by the real request/grant protocol.
  EXPECT_GT(requests, 0u);
  EXPECT_GT(grants, 0u);
}

TEST(SimMemoryTest, MatmulSurvivesSignOffDuringFetches) {
  SimCluster cluster;
  SiteConfig cfg;
  cfg.help_retry_interval = 50'000;  // spread the blocks early
  cluster.add_sites(3, 1.0, cfg);
  apps::MatmulParams params;
  params.n = 16;
  params.block_rows = 2;
  auto pid = cluster.start_program(apps::make_matmul_program(params));
  ASSERT_TRUE(pid.is_ok());
  // Run until a microthread on the non-home site 3 waits for an object,
  // then sign that site off: relocation races live fetches.
  Site& leaver = cluster.site(2);
  for (int i = 0; i < 100'000 && leaver.processing().idle(); ++i) {
    cluster.loop().run_for(10'000);
  }
  ASSERT_FALSE(leaver.processing().idle()) << "no fetch was ever in flight";
  ASSERT_TRUE(cluster.sign_off(2).is_ok());

  auto code = cluster.run_program(pid.value(), 600 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_TRUE(leaver.signed_off());
  auto ref = apps::matmul_reference(params.n);
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    expected += ref[i] * (static_cast<std::int64_t>(i) % 13 + 1);
  }
  auto out = cluster.outputs(0, pid.value());
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), std::to_string(expected));
}

TEST(SimFibTest, RecursiveDataflowCorrect) {
  SimCluster cluster;
  cluster.add_sites(4);
  apps::FibParams params;
  params.n = 12;
  params.leaf_work = 200'000;
  auto pid = cluster.start_program(apps::make_fib_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 600 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  auto out = cluster.outputs(0, pid.value());
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), std::to_string(apps::fib_reference(12)));
}

TEST(SimHeterogeneousTest, ForeignPlatformCompilesOnTheFly) {
  SimCluster cluster;
  SiteConfig linux_cfg;
  linux_cfg.platform = "linux-x86";
  SiteConfig hpux_cfg;
  hpux_cfg.platform = "hpux-parisc";
  cluster.add_sites(1, 1.0, linux_cfg);
  cluster.add_sites(1, 1.0, hpux_cfg);
  cluster.add_sites(1, 1.0, hpux_cfg);

  apps::PrimesParams params;
  params.p = 20;
  params.width = 6;
  params.work_mult = 10'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 600 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();

  // The first hpux site got source and compiled; its upload should let
  // the second hpux site fetch a binary (or at worst compile too).
  std::uint64_t hpux_compiles =
      testing_util::counter(cluster.site(1), "code.compiles") +
                                testing_util::counter(cluster.site(2),
                                                      "code.compiles");
  std::uint64_t hpux_sources =
      testing_util::counter(cluster.site(1), "code.source_fetches") +
                               testing_util::counter(cluster.site(2),
                                                     "code.source_fetches");
  EXPECT_GT(hpux_sources, 0u) << "source fallback never exercised";
  EXPECT_GT(hpux_compiles, 0u);
  // Uploads must have reached the home (code distribution) site.
  EXPECT_GT(testing_util::counter(cluster.site(0),
                                  "code.uploads_received"), 0u);
}

TEST(SimHeterogeneousTest, BinaryReusedAfterUpload) {
  // One foreign-platform site compiles and uploads; a later-joining site
  // of the same platform should fetch the binary, not the source.
  SimCluster cluster;
  SiteConfig linux_cfg;
  linux_cfg.platform = "linux-x86";
  SiteConfig hpux_cfg;
  hpux_cfg.platform = "hpux-parisc";
  cluster.add_sites(1, 1.0, linux_cfg);
  cluster.add_sites(1, 1.0, hpux_cfg);

  apps::PrimesParams params;
  params.p = 15;
  params.width = 6;
  params.work_mult = 10'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(cluster.run_program(pid.value(), 600 * kNanosPerSecond).is_ok());

  std::uint64_t first_compiles =
      testing_util::counter(cluster.site(1), "code.compiles");
  EXPECT_GT(first_compiles, 0u);

  // New same-platform site joins and runs another program instance.
  cluster.add_sites(1, 1.0, hpux_cfg);
  auto pid2 = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid2.is_ok());
  ASSERT_TRUE(cluster.run_program(pid2.value(), 600 * kNanosPerSecond).is_ok());
  EXPECT_GT(testing_util::counter(cluster.site(2), "code.binary_fetches") +
                testing_util::counter(cluster.site(2), "code.compiles"),
            0u);
}

TEST(SimMultiProgramTest, TwoProgramsRunIndependently) {
  SimCluster cluster;
  cluster.add_sites(3);
  apps::PrimesParams p1;
  p1.p = 15;
  p1.width = 5;
  p1.work_mult = 5'000'000;
  apps::FibParams p2;
  p2.n = 10;
  p2.leaf_work = 500'000;

  auto a = cluster.start_program(apps::make_primes_program(p1), 0);
  auto b = cluster.start_program(apps::make_fib_program(p2), 1);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(cluster.run_program(a.value(), 600 * kNanosPerSecond).is_ok());
  ASSERT_TRUE(cluster.run_program(b.value(), 600 * kNanosPerSecond).is_ok());

  testing_util::expect_primes_verdict(cluster.outputs(0, a.value()), 15, 5);
  EXPECT_EQ(cluster.outputs(1, b.value()).back(),
            std::to_string(apps::fib_reference(10)));
}

TEST(SimDynamicTest, SiteJoinsMidRun) {
  SimCluster cluster;
  cluster.add_sites(2);
  apps::PrimesParams params;
  params.p = 60;
  params.width = 10;
  params.work_mult = 20'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());

  // Let it run a bit, then a new site joins and should pick up work.
  cluster.loop().run_for(kNanosPerSecond / 2);
  cluster.add_sites(2);
  auto code = cluster.run_program(pid.value(), 3000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_GT(testing_util::counter(cluster.site(2), "proc.executed") +
                testing_util::counter(cluster.site(3), "proc.executed"),
            0u)
      << "late joiners never got work";
  testing_util::expect_primes_verdict(cluster.outputs(0, pid.value()), 60, 10);
}

TEST(SimDynamicTest, GracefulSignOffMidRun) {
  SimCluster cluster;
  cluster.add_sites(4);
  apps::PrimesParams params;
  params.p = 60;
  params.width = 10;
  params.work_mult = 20'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());

  cluster.loop().run_for(kNanosPerSecond / 2);
  // Site 3 (not the home) leaves gracefully; its frames relocate.
  auto successor = cluster.sign_off(3);
  ASSERT_TRUE(successor.is_ok()) << successor.status().to_string();

  auto code = cluster.run_program(pid.value(), 3000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  testing_util::expect_primes_verdict(cluster.outputs(0, pid.value()), 60, 10);
}

TEST(SimDynamicTest, KillThenRejoinUnderPartition) {
  // A site crashes behind an active partition while a replacement joins
  // through the still-reachable side; after the heal the program must
  // still commit the right result via checkpoint recovery.
  SimCluster cluster;
  SiteConfig cfg;
  cfg.checkpoints_enabled = true;
  cfg.checkpoint_interval = kNanosPerSecond / 2;
  cfg.heartbeat_interval = 100'000'000;
  cfg.failure_timeout = 400'000'000;
  cluster.add_sites(4, 1.0, cfg);

  apps::PrimesParams params;
  params.p = 60;
  params.width = 8;
  params.work_mult = 30'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  cluster.loop().run_for(kNanosPerSecond);

  auto addr = [&](std::size_t i) {
    return cluster.site(i).transport()->local_address();
  };
  cluster.network().partition({addr(0), addr(1)}, {addr(2), addr(3)});
  cluster.kill(3);

  // The replacement signs on via the home site, which the partition does
  // not cut off from the new endpoint.
  Site& fresh = cluster.add_site(cfg, /*contact_index=*/0);
  EXPECT_TRUE(fresh.joined()) << "join through live side failed";

  // Let the failure detector fire on both sides of the cut, then heal.
  cluster.loop().run_for(kNanosPerSecond);
  cluster.network().heal();
  // heal() clears the fabric's kill set too; the crashed site must stay
  // black-holed.
  cluster.network().kill(addr(3));

  auto code = cluster.run_program(pid.value(), 3000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  testing_util::expect_primes_verdict(cluster.outputs(0, pid.value()), 60, 8);
  // The crash (and the unreachable far side) must have triggered at least
  // one checkpoint recovery at the coordinator.
  EXPECT_GE(testing_util::counter(cluster.site(0), "crash.recoveries"), 1u);
}

TEST(SimIoTest, OutputRoutedToFrontend) {
  SimCluster cluster;
  cluster.add_sites(3);
  // Every worker outputs; all lines must land at the home site (site 0).
  auto spec = ProgramBuilder("io")
                  .thread("entry", R"(
                    var c = spawn("collect", 4);
                    var i = 0;
                    while (i < 4) {
                      var w = spawn("work", 2);
                      send(w, 0, c);
                      send(w, 1, i);
                      i = i + 1;
                    }
                  )")
                  .thread("work", R"(
                    out(selfsite() * 1000 + param(1));
                    send(param(0), param(1), 1);
                  )")
                  .thread("collect", R"( outs("done"); exit(0); )")
                  .entry("entry")
                  .build();
  auto pid = cluster.start_program(spec);
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(cluster.run_program(pid.value(), 60 * kNanosPerSecond).is_ok());
  auto out = cluster.outputs(0, pid.value());
  EXPECT_EQ(out.size(), 5u);  // 4 worker lines + "done"
  EXPECT_EQ(out.back(), "done");
  // No output lines anywhere else.
  EXPECT_TRUE(cluster.outputs(1, pid.value()).empty());
  EXPECT_TRUE(cluster.outputs(2, pid.value()).empty());
}

TEST(SimIoTest, RemoteFileAccessRerouted) {
  SimCluster cluster;
  cluster.add_sites(2);
  // Seed a file on site 2's VFS; a native thread on site 1 reads it.
  cluster.site(1).io().vfs_put("data.txt", "attraction");

  auto spec =
      ProgramBuilder("files")
          .native_thread("entry",
                         [](Context& ctx) {
                           std::string v = ctx.file_read("@2/data.txt");
                           ctx.out_str("read: " + v);
                           ctx.file_write("@2/result.txt", "stored");
                           ctx.exit_program(0);
                         })
          .entry("entry")
          .build();
  auto pid = cluster.start_program(spec);
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(cluster.run_program(pid.value(), 60 * kNanosPerSecond).is_ok());
  EXPECT_EQ(cluster.outputs(0, pid.value()).back(), "read: attraction");
  auto stored = cluster.site(1).io().vfs_get("result.txt");
  ASSERT_TRUE(stored.is_ok());
  EXPECT_EQ(stored.value(), "stored");
  // Both accesses crossed the network as file-read/file-write messages.
  EXPECT_EQ(testing_util::counter(cluster.site(0), "msg.sent.file-read"), 1u);
  EXPECT_EQ(testing_util::counter(cluster.site(0), "msg.sent.file-write"),
            1u);
}

// Experiment P5 (paper §4): 48 tasks each read a file rerouted to site 2
// over 1 ms links, then compute 30 us. More executor slots overlap the
// stalls, so the virtual makespan falls. bench/ablation_slots prints the
// full table for the same workload.
Nanos io_stall_makespan(int slots) {
  constexpr int kTasks = 48;
  SimCluster::Options options;
  options.link.latency = 1'000'000;
  SimCluster cluster(options);
  SiteConfig cfg;
  cfg.executor_slots = slots;
  cfg.help_retry_interval = 500'000;
  cluster.add_sites(2, 1.0, cfg);
  cluster.site(1).io().vfs_put("shared.dat", std::string(512, 'x'));
  auto spec =
      ProgramBuilder("io-stall")
          .native_thread("entry",
                         [](Context& ctx) {
                           GlobalAddress done = ctx.spawn("done", kTasks);
                           for (int i = 0; i < kTasks; ++i) {
                             GlobalAddress t = ctx.spawn("task", 2);
                             ctx.send_int(t, 0, static_cast<std::int64_t>(
                                                    done.value));
                             ctx.send_int(t, 1, i);
                           }
                         })
          .native_thread("task",
                         [](Context& ctx) {
                           std::string blob = ctx.file_read("@2/shared.dat");
                           ctx.charge(30'000);
                           ctx.send_int(
                               GlobalAddress{static_cast<std::uint64_t>(
                                   ctx.param_int(0))},
                               static_cast<int>(ctx.param_int(1)),
                               static_cast<std::int64_t>(blob.size()));
                         })
          .native_thread("done", [](Context& ctx) { ctx.exit_program(0); })
          .entry("entry")
          .build();
  const Nanos start = cluster.now();
  auto pid = cluster.start_program(spec);
  EXPECT_TRUE(pid.is_ok());
  EXPECT_TRUE(cluster.run_program(pid.value(), 60 * kNanosPerSecond).is_ok());
  return cluster.now() - start;
}

TEST(SimIoTest, ExecutorSlotsHideRemoteFileLatency) {
  const Nanos one = io_stall_makespan(1);
  const Nanos two = io_stall_makespan(2);
  const Nanos five = io_stall_makespan(5);
  EXPECT_LT(two, one);
  EXPECT_LT(five, two);
  EXPECT_GE(static_cast<double>(one) / static_cast<double>(five), 1.5)
      << "1 slot " << one << " ns, 5 slots " << five << " ns";
}

TEST(SimSecurityTest, EncryptedClusterRuns) {
  SimCluster cluster;
  SiteConfig cfg;
  cfg.encrypt = true;
  cfg.cluster_password = "topsecret";
  cluster.add_sites(3, 1.0, cfg);
  apps::PrimesParams params;
  params.p = 15;
  params.width = 5;
  params.work_mult = 5'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 600 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  testing_util::expect_primes_verdict(cluster.outputs(0, pid.value()), 15, 5);
  EXPECT_GT(testing_util::counter(cluster.site(0), "sec.sealed"), 0u);
  EXPECT_GT(testing_util::counter(cluster.site(1), "sec.opened"), 0u);
}

TEST(SimSchedulingTest, HelpRequestCountersMove) {
  SimCluster cluster;
  cluster.add_sites(4);
  apps::PrimesParams params;
  params.p = 30;
  params.width = 10;
  params.work_mult = 10'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(cluster.run_program(pid.value(), 600 * kNanosPerSecond).is_ok());

  std::uint64_t requests = 0, given = 0, received = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    requests +=
        testing_util::counter(cluster.site(i), "sched.help_requests_sent");
    given += testing_util::counter(cluster.site(i), "sched.help_frames_given");
    received +=
        testing_util::counter(cluster.site(i), "sched.help_frames_received");
  }
  EXPECT_GT(requests, 0u);
  EXPECT_GT(given, 0u);
  EXPECT_EQ(given, received);  // conservation: no frame lost or duplicated
}

}  // namespace
}  // namespace sdvm
